// Positive fixture: MAX-sentinel defaults on event-wheel edge math.
// An absent edge collapsed to MAX is indistinguishable from a real one,
// and offset arithmetic on the sentinel wraps.
fn wake_target(ctl: &Controller, now: u64, until: u64) -> u64 {
    let wake = ctl.next_event(now).unwrap_or(u64::MAX);
    let refresh_due = ctl.next_due(0).map_or(Cycle::MAX, |c| c + 1);
    let retire = ctl.head.retire_at.map_or(Cycle::MAX, |t| t / 4);
    wake.min(refresh_due).min(retire).min(until)
}
