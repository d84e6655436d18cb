//! The Metropolis annealing loop.

use crate::{AdaptiveSchedule, AnnealStats, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An optimization problem solvable by simulated annealing.
///
/// Implementors provide the state representation, the energy (cost) to be
/// minimized, and a neighbourhood move. The engine owns the acceptance
/// logic, temperature schedule and statistics.
pub trait Problem {
    /// The solution representation.
    type State: Clone;

    /// Produces the starting state (the paper's *Placement Selector* /
    /// *Dimensions Selector* initialization steps).
    fn initial(&self, rng: &mut StdRng) -> Self::State;

    /// Cost of a state; lower is better. Must be finite for valid states
    /// (`f64::INFINITY` is acceptable for states that should never be
    /// accepted).
    fn energy(&self, state: &Self::State) -> f64;

    /// Proposes a perturbed copy of `state` (the paper's *Perturb* steps).
    fn neighbor(&self, state: &Self::State, rng: &mut StdRng) -> Self::State;
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealOutcome<S> {
    /// Lowest-energy state observed at any point during the run.
    pub best_state: S,
    /// Energy of [`AnnealOutcome::best_state`].
    pub best_energy: f64,
    /// The accepted state at the end of the run (may be worse than best).
    pub final_state: S,
    /// Counters and cost aggregates.
    pub stats: AnnealStats,
}

/// Configuration for an [`Annealer`].
///
/// Construct with [`AnnealerConfig::builder`]. The embedded schedule is a
/// span-normalized exponential decay from `t0` to `t_end` (see
/// [`AdaptiveSchedule`]); [`Annealer::run_with_schedule`] accepts any other
/// [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealerConfig {
    /// Number of proposals to evaluate.
    pub iterations: usize,
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Initial temperature.
    pub t0: f64,
    /// Final temperature.
    pub t_end: f64,
}

impl AnnealerConfig {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> AnnealerConfigBuilder {
        AnnealerConfigBuilder::default()
    }
}

impl Default for AnnealerConfig {
    fn default() -> Self {
        Self {
            iterations: 5_000,
            seed: 0,
            t0: 1.0,
            t_end: 1e-4,
        }
    }
}

/// Builder for [`AnnealerConfig`].
#[derive(Debug, Clone, Default)]
pub struct AnnealerConfigBuilder {
    config: AnnealerConfig,
}

impl AnnealerConfigBuilder {
    /// Sets the number of proposals to evaluate.
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.config.iterations = iterations;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the initial temperature.
    ///
    /// # Panics
    ///
    /// Panics (at [`AnnealerConfigBuilder::build`]) if not positive.
    #[must_use]
    pub fn initial_temperature(mut self, t0: f64) -> Self {
        self.config.t0 = t0;
        self
    }

    /// Sets the final temperature.
    ///
    /// # Panics
    ///
    /// Panics (at [`AnnealerConfigBuilder::build`]) if not positive or above
    /// the initial temperature.
    #[must_use]
    pub fn final_temperature(mut self, t_end: f64) -> Self {
        self.config.t_end = t_end;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the temperature pair is invalid (checked by
    /// [`AdaptiveSchedule::new`]).
    #[must_use]
    pub fn build(self) -> AnnealerConfig {
        // Validate eagerly so misconfiguration fails at build, not mid-run.
        let _ = AdaptiveSchedule::new(self.config.t0, self.config.t_end);
        self.config
    }
}

/// The Metropolis acceptance rule: always accept improvements, accept an
/// uphill move of `delta > 0` with probability `exp(-delta / temperature)`.
///
/// Exposed as a free function because both levels of the generator in
/// `mps-core` run their own loops while reusing exactly this rule: in the
/// Placement Explorer evaluating a proposal has heavy side effects (each
/// proposal is expanded, optimized by the BDIO and stored into the
/// structure), and the BDIO changes one dimension vector in place.
pub fn metropolis(delta: f64, temperature: f64, rng: &mut StdRng) -> bool {
    if delta <= 0.0 {
        return true;
    }
    if temperature <= 0.0 {
        return false;
    }
    rng.random::<f64>() < (-delta / temperature).exp()
}

/// Drives a [`Problem`] through a Metropolis loop under a schedule.
#[derive(Debug, Clone)]
pub struct Annealer {
    config: AnnealerConfig,
}

impl Annealer {
    /// Creates an annealer with the given configuration.
    #[must_use]
    pub fn new(config: AnnealerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &AnnealerConfig {
        &self.config
    }

    /// Runs the annealing loop with the config's adaptive schedule.
    pub fn run<P: Problem>(&self, problem: &P) -> AnnealOutcome<P::State> {
        let schedule = AdaptiveSchedule::new(self.config.t0, self.config.t_end);
        self.run_with_schedule(problem, &schedule)
    }

    /// Runs the annealing loop under an arbitrary [`Schedule`].
    pub fn run_with_schedule<P: Problem, S: Schedule>(
        &self,
        problem: &P,
        schedule: &S,
    ) -> AnnealOutcome<P::State> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut current = problem.initial(&mut rng);
        let mut current_energy = problem.energy(&current);
        let mut best = current.clone();
        let mut best_energy = current_energy;

        let mut stats = AnnealStats {
            evaluated: 1,
            accepted: 1,
            uphill_accepted: 0,
            best_energy,
            mean_energy: current_energy,
            final_temperature: schedule.temperature(0, self.config.iterations),
        };
        let mut energy_sum = if current_energy.is_finite() {
            current_energy
        } else {
            0.0
        };
        let mut finite_count = usize::from(current_energy.is_finite());

        for k in 0..self.config.iterations {
            let temperature = schedule.temperature(k, self.config.iterations);
            let candidate = problem.neighbor(&current, &mut rng);
            let candidate_energy = problem.energy(&candidate);
            stats.evaluated += 1;
            if candidate_energy.is_finite() {
                energy_sum += candidate_energy;
                finite_count += 1;
            }

            let delta = candidate_energy - current_energy;
            if metropolis(delta, temperature, &mut rng) {
                stats.accepted += 1;
                if delta > 0.0 {
                    stats.uphill_accepted += 1;
                }
                current = candidate;
                current_energy = candidate_energy;
                if current_energy < best_energy {
                    best_energy = current_energy;
                    best = current.clone();
                }
            }
            stats.final_temperature = temperature;
        }

        stats.best_energy = best_energy;
        stats.mean_energy = if finite_count == 0 {
            f64::INFINITY
        } else {
            energy_sum / finite_count as f64
        };

        AnnealOutcome {
            best_state: best,
            best_energy,
            final_state: current,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize |x - 37| over integers.
    struct AbsProblem;
    impl Problem for AbsProblem {
        type State = i64;
        fn initial(&self, _rng: &mut StdRng) -> i64 {
            500
        }
        fn energy(&self, s: &i64) -> f64 {
            (s - 37).abs() as f64
        }
        fn neighbor(&self, s: &i64, rng: &mut StdRng) -> i64 {
            s + rng.random_range(-5..=5)
        }
    }

    #[test]
    fn converges_on_simple_problem() {
        let config = AnnealerConfig::builder()
            .iterations(20_000)
            .seed(1)
            .initial_temperature(50.0)
            .final_temperature(1e-3)
            .build();
        let outcome = Annealer::new(config).run(&AbsProblem);
        assert!(
            outcome.best_energy < 5.0,
            "expected near-optimal, got {}",
            outcome.best_energy
        );
        assert_eq!(outcome.stats.evaluated, 20_001);
    }

    #[test]
    fn deterministic_under_seed() {
        let config = AnnealerConfig::builder().iterations(500).seed(99).build();
        let a = Annealer::new(config).run(&AbsProblem);
        let b = Annealer::new(config).run(&AbsProblem);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let a = Annealer::new(AnnealerConfig::builder().iterations(200).seed(1).build())
            .run(&AbsProblem);
        let b = Annealer::new(AnnealerConfig::builder().iterations(200).seed(2).build())
            .run(&AbsProblem);
        // Trajectories differ even if both eventually find the optimum.
        assert!(a.final_state != b.final_state || a.stats.accepted != b.stats.accepted);
    }

    #[test]
    fn best_energy_never_worse_than_final() {
        let outcome = Annealer::new(AnnealerConfig::builder().iterations(300).seed(5).build())
            .run(&AbsProblem);
        let final_energy = AbsProblem.energy(&outcome.final_state);
        assert!(outcome.best_energy <= final_energy + 1e-12);
    }

    #[test]
    fn mean_energy_bounded_by_extremes() {
        let outcome = Annealer::new(
            AnnealerConfig::builder()
                .iterations(1_000)
                .seed(3)
                .initial_temperature(100.0)
                .build(),
        )
        .run(&AbsProblem);
        assert!(outcome.stats.mean_energy >= outcome.best_energy);
        assert!(outcome.stats.mean_energy <= 463.0 + 100.0); // initial |500-37| plus slack
    }

    #[test]
    fn zero_iterations_returns_initial() {
        let outcome =
            Annealer::new(AnnealerConfig::builder().iterations(0).seed(0).build()).run(&AbsProblem);
        assert_eq!(outcome.best_state, 500);
        assert_eq!(outcome.final_state, 500);
        assert_eq!(outcome.stats.evaluated, 1);
    }

    #[test]
    fn metropolis_always_accepts_downhill() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(metropolis(-1.0, 0.5, &mut rng));
            assert!(metropolis(0.0, 0.5, &mut rng));
        }
    }

    #[test]
    fn metropolis_rejects_uphill_at_zero_temperature() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(!metropolis(1.0, 0.0, &mut rng));
        }
    }

    #[test]
    fn metropolis_uphill_acceptance_scales_with_temperature() {
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        let count = |temp: f64, rng: &mut StdRng| {
            (0..trials).filter(|_| metropolis(1.0, temp, rng)).count()
        };
        let hot = count(10.0, &mut rng);
        let cold = count(0.2, &mut rng);
        assert!(hot > cold, "hot {hot} should accept more than cold {cold}");
        // exp(-1/10) ~ 0.905, exp(-5) ~ 0.0067
        assert!((hot as f64 / trials as f64) > 0.85);
        assert!((cold as f64 / trials as f64) < 0.05);
    }

    #[test]
    fn infinite_energy_states_are_never_counted_in_mean() {
        struct Spiky;
        impl Problem for Spiky {
            type State = i64;
            fn initial(&self, _rng: &mut StdRng) -> i64 {
                0
            }
            fn energy(&self, s: &i64) -> f64 {
                if *s % 2 == 0 {
                    *s as f64
                } else {
                    f64::INFINITY
                }
            }
            fn neighbor(&self, s: &i64, rng: &mut StdRng) -> i64 {
                s + rng.random_range(1..=2)
            }
        }
        let outcome =
            Annealer::new(AnnealerConfig::builder().iterations(100).seed(7).build()).run(&Spiky);
        assert!(outcome.stats.mean_energy.is_finite());
    }

    #[test]
    fn builder_validates_temperatures() {
        let result = std::panic::catch_unwind(|| {
            AnnealerConfig::builder()
                .initial_temperature(0.1)
                .final_temperature(1.0)
                .build()
        });
        assert!(result.is_err());
    }
}
