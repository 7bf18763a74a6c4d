use crate::ScenarioKind;
use autokit::{presets::DrivingDomain, Trace};

/// Safety-relevant events detected in an execution trace.
///
/// These are the operational analogue of specification violations: a
/// right turn across approaching traffic is what the paper's Φ₅
/// counterexample "can lead to an accident" refers to. The simulator
/// reports them independently of LTLf monitoring so examples can show the
/// *physical* consequence of an unverified controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncidentKind {
    /// Turned right while a car approached from the left or a pedestrian
    /// occupied the right side.
    UnsafeRightTurn,
    /// Turned left into oncoming traffic without a protected signal.
    UnsafeLeftTurn,
    /// Drove straight against a red light.
    RanRedLight,
    /// Drove straight at a pedestrian in front.
    PedestrianConflict,
}

/// One detected incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incident {
    /// Trace position (tick) of the event.
    pub step: usize,
    /// What happened.
    pub kind: IncidentKind,
}

/// Scans a trace for incidents.
///
/// # Example
///
/// ```
/// use autokit::{presets::DrivingDomain, ActSet, PropSet, Step, Trace};
/// use drivesim::{detect_incidents, IncidentKind};
///
/// let d = DrivingDomain::new();
/// let mut trace = Trace::new();
/// trace.push(Step::new(
///     PropSet::singleton(d.car_left),
///     ActSet::singleton(d.turn_right),
/// ));
/// let incidents = detect_incidents(&trace, &d);
/// assert_eq!(incidents[0].kind, IncidentKind::UnsafeRightTurn);
/// ```
pub fn detect_incidents(trace: &Trace, d: &DrivingDomain) -> Vec<Incident> {
    // Without scenario context, a light is assumed wherever no stop sign
    // is observed; [`detect_incidents_for`] is exact.
    detect(trace, d, None)
}

/// Scenario-aware incident scan: red-light running is only reported in
/// scenarios that actually have a traffic light.
pub fn detect_incidents_for(
    trace: &Trace,
    d: &DrivingDomain,
    scenario: ScenarioKind,
) -> Vec<Incident> {
    detect(trace, d, Some(scenario))
}

fn detect(trace: &Trace, d: &DrivingDomain, scenario: Option<ScenarioKind>) -> Vec<Incident> {
    let has_light = match scenario {
        Some(ScenarioKind::TrafficLight) => true,
        Some(_) => false,
        None => true, // approximated per step below
    };
    let mut out = Vec::new();
    for (i, step) in trace.iter().enumerate() {
        let obs = step.props;
        let act = step.acts;
        if act.contains(d.turn_right) && (obs.contains(d.car_left) || obs.contains(d.ped_right)) {
            out.push(Incident {
                step: i,
                kind: IncidentKind::UnsafeRightTurn,
            });
        }
        if act.contains(d.turn_left) && obs.contains(d.opposite_car) && !obs.contains(d.green_ll) {
            out.push(Incident {
                step: i,
                kind: IncidentKind::UnsafeLeftTurn,
            });
        }
        let light_here = has_light && (scenario.is_some() || !obs.contains(d.stop_sign));
        if act.contains(d.go_straight) && !obs.contains(d.green_tl) && light_here {
            out.push(Incident {
                step: i,
                kind: IncidentKind::RanRedLight,
            });
        }
        if act.contains(d.go_straight) && obs.contains(d.ped_front) {
            out.push(Incident {
                step: i,
                kind: IncidentKind::PedestrianConflict,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokit::{ActSet, PropSet, Step};

    #[test]
    fn clean_trace_has_no_incidents() {
        let d = DrivingDomain::new();
        let mut trace = Trace::new();
        trace.push(Step::new(
            PropSet::singleton(d.green_tl),
            ActSet::singleton(d.go_straight),
        ));
        trace.push(Step::new(PropSet::empty(), ActSet::singleton(d.stop)));
        assert!(detect_incidents(&trace, &d).is_empty());
    }

    #[test]
    fn unsafe_left_turn_requires_missing_protection() {
        let d = DrivingDomain::new();
        let mut protected = Trace::new();
        protected.push(Step::new(
            PropSet::singleton(d.opposite_car).with(d.green_ll),
            ActSet::singleton(d.turn_left),
        ));
        assert!(detect_incidents(&protected, &d).is_empty());
        let mut unprotected = Trace::new();
        unprotected.push(Step::new(
            PropSet::singleton(d.opposite_car),
            ActSet::singleton(d.turn_left),
        ));
        assert_eq!(
            detect_incidents(&unprotected, &d)[0].kind,
            IncidentKind::UnsafeLeftTurn
        );
    }

    #[test]
    fn red_light_running_detected_only_at_lights() {
        let d = DrivingDomain::new();
        let mut at_light = Trace::new();
        at_light.push(Step::new(
            PropSet::empty(),
            ActSet::singleton(d.go_straight),
        ));
        assert_eq!(
            detect_incidents(&at_light, &d)[0].kind,
            IncidentKind::RanRedLight
        );
        // At a stop-sign intersection there is no red light to run.
        let mut at_sign = Trace::new();
        at_sign.push(Step::new(
            PropSet::singleton(d.stop_sign),
            ActSet::singleton(d.go_straight),
        ));
        assert!(detect_incidents(&at_sign, &d).is_empty());
    }

    #[test]
    fn multiple_incidents_reported_in_order() {
        let d = DrivingDomain::new();
        let mut trace = Trace::new();
        trace.push(Step::new(
            PropSet::singleton(d.ped_right),
            ActSet::singleton(d.turn_right),
        ));
        trace.push(Step::new(
            PropSet::singleton(d.ped_front).with(d.green_tl),
            ActSet::singleton(d.go_straight),
        ));
        let incidents = detect_incidents(&trace, &d);
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].step, 0);
        assert_eq!(incidents[1].kind, IncidentKind::PedestrianConflict);
    }
}
