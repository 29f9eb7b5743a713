//! Fixture: an annealing proposal chain drawing randomness from OS
//! entropy instead of the seeded `mix(seed, step, salt)` counter the
//! real attack search uses. Every draw below must surface as a
//! `nondeterminism` finding — proposal, acceptance, and schedule alike
//! — and nothing else.

fn propose_and_accept(current: u64, steps: u32) -> u64 {
    let mut best = current;
    for step in 0..steps {
        // Proposal draw: swap target from the thread-local RNG.
        let swap = rand::random::<u64>();
        // Acceptance draw: Metropolis coin from fresh OS entropy —
        // resume could never replay this chain.
        let mut rng = rand::rngs::StdRng::from_entropy();
        if rng.next_u64() & 1 == 0 {
            best = best ^ swap ^ u64::from(step);
        }
    }
    best
}

fn cooling_deadline_nanos() -> u64 {
    // Wall-clock cooling schedule: an `obs-wallclock` finding, which
    // the annotation suppresses, and no `nondeterminism` one.
    let started = std::time::SystemTime::now(); // audit:allow(obs-wallclock)
    match started.duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => u64::from(d.subsec_nanos()),
        Err(_) => 0,
    }
}
