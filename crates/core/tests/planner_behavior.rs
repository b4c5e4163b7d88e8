//! Decision-level tests: the planner's choices on pinpoint beliefs, where
//! the expected-utility argmax can be reasoned out by hand.

use augur_core::{decide, Action, DiscountedThroughput, PlannerConfig};
use augur_elements::{build_model, GateSpec, ModelParams, FIG2_ENTRY, FIG2_LOSS, FIG2_RX_SELF};
use augur_inference::{Belief, BeliefConfig, Hypothesis, Population};
use augur_sim::{BitRate, Bits, FlowId, Ppm};

fn pinpoint(params: ModelParams) -> Belief<ModelParams> {
    let net = build_model(params);
    let prior = vec![Hypothesis {
        net,
        meta: params,
        weight: 1.0,
    }];
    Belief::from_population(
        Population::new(prior, Some(FIG2_LOSS)),
        FIG2_ENTRY,
        FIG2_RX_SELF,
        BeliefConfig::default(),
    )
}

fn params(fullness_bits: u64, loss: f64) -> ModelParams {
    ModelParams {
        link_rate: BitRate::from_bps(12_000),
        cross_rate: BitRate::from_bps(8_400),
        gate: GateSpec::AlwaysOn,
        loss: Ppm::from_prob(loss),
        buffer_capacity: Bits::new(96_000),
        initial_fullness: Bits::new(fullness_bits),
        packet_size: Bits::from_bytes(1_500),
        cross_active: false,
    }
}

#[test]
fn empty_known_network_sends_immediately() {
    let belief = pinpoint(params(0, 0.0));
    let d = decide(
        &belief,
        &PlannerConfig::default(),
        &DiscountedThroughput::with_alpha(1.0),
        FlowId::SELF,
        0,
        Bits::from_bytes(1_500),
    );
    assert_eq!(
        d.action,
        Action::SendNow,
        "evaluations: {:?}",
        d.evaluations
    );
    // Sending must beat idling by roughly one delivered packet.
    let idle = d.evaluations[0].1;
    assert!(d.expected_utility > idle + 10_000.0);
}

#[test]
fn full_buffer_prefers_waiting_over_a_wasted_send() {
    // Prefill to capacity, then one injected packet takes the slot the
    // build-time kick freed: the queue now sits exactly at capacity, so
    // send-now is dropped (utility of the send = 0) while a delayed send
    // after one drain is delivered. The planner must not choose SendNow.
    let mut belief = pinpoint(params(96_000, 0.0));
    belief.inject(augur_sim::Packet::new(
        FlowId::SELF,
        0,
        Bits::from_bytes(1_500),
        augur_sim::Time::ZERO,
    ));
    let d = decide(
        &belief,
        &PlannerConfig::default(),
        &DiscountedThroughput::with_alpha(1.0),
        FlowId::SELF,
        1,
        Bits::from_bytes(1_500),
    );
    assert_ne!(
        d.action,
        Action::SendNow,
        "evaluations: {:?}",
        d.evaluations
    );
    // And the idle baseline ties exactly with send-now (the dropped
    // packet contributes nothing).
    let idle = d.evaluations[0].1;
    let send_now = d.evaluations[1].1;
    assert!(
        (send_now - idle).abs() < 1e-6,
        "a wasted send should be utility-neutral: {send_now} vs {idle}"
    );
}

#[test]
fn loss_scales_expected_utility() {
    let eu = |loss: f64| {
        let belief = pinpoint(params(0, loss));
        let d = decide(
            &belief,
            &PlannerConfig::default(),
            &DiscountedThroughput::with_alpha(0.0),
            FlowId::SELF,
            0,
            Bits::from_bytes(1_500),
        );
        assert_eq!(d.action, Action::SendNow);
        d.expected_utility - d.evaluations[0].1 // marginal over idle
    };
    let clean = eu(0.0);
    let lossy = eu(0.2);
    let ratio = lossy / clean;
    assert!(
        (ratio - 0.8).abs() < 0.05,
        "20% last-mile loss should scale the send's value by ~0.8, got {ratio}"
    );
}

#[test]
fn evaluations_cover_idle_plus_every_grid_delay() {
    let belief = pinpoint(params(0, 0.0));
    let cfg = PlannerConfig::default();
    let d = decide(
        &belief,
        &cfg,
        &DiscountedThroughput::with_alpha(1.0),
        FlowId::SELF,
        0,
        Bits::from_bytes(1_500),
    );
    assert_eq!(d.evaluations.len(), 1 + cfg.delay_grid.len());
    assert_eq!(d.evaluations[0].0, None);
    for (i, &delta) in cfg.delay_grid.iter().enumerate() {
        assert_eq!(d.evaluations[i + 1].0, Some(delta));
    }
}
