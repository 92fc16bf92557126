//! Branch & bound for mixed 0/1 programs on top of the simplex
//! relaxation.
//!
//! Depth-first search branching on the most fractional binary variable.
//! The caller may provide an *incumbent* objective (e.g. from the greedy
//! or memetic heuristic) so the very first relaxations can already
//! prune. Node and wall-clock budgets make large instances terminate
//! with the best solution found and a lower bound — mirroring how the
//! paper could only compute the optimal allocation up to 7 backends.

use std::time::{Duration, Instant};

use crate::simplex::{self, Constraint, LinearProgram, LpOutcome};

const INT_TOL: f64 = 1e-6;

/// Search limits for the branch & bound.
#[derive(Debug, Clone)]
pub struct MipConfig {
    /// Maximum number of explored nodes.
    pub max_nodes: usize,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Known feasible objective to prune against (exclusive upper
    /// bound); `f64::INFINITY` if none.
    pub incumbent_objective: f64,
}

impl Default for MipConfig {
    fn default() -> Self {
        Self {
            max_nodes: 20_000,
            time_limit: Duration::from_secs(60),
            incumbent_objective: f64::INFINITY,
        }
    }
}

/// How the search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// A budget was hit; the solution is the best incumbent and
    /// `lower_bound` is valid.
    BudgetExhausted,
    /// No integer-feasible solution exists.
    Infeasible,
}

/// Result of a branch & bound run.
#[derive(Debug, Clone)]
pub struct MipOutcome {
    /// Best integer-feasible solution found (`None` if infeasible or no
    /// solution better than the provided incumbent was found).
    pub x: Option<Vec<f64>>,
    /// Its objective value (or the caller's incumbent objective).
    pub objective: f64,
    /// Valid lower bound on the optimal objective.
    pub lower_bound: f64,
    /// Termination status.
    pub status: MipStatus,
    /// Nodes explored.
    pub nodes: usize,
}

/// Solves `min c·x` over the LP with the listed variables restricted to
/// {0, 1}.
#[expect(
    clippy::disallowed_methods,
    reason = "the wall-clock budget bounds search time, never what a found solution means"
)]
pub fn solve_binary(lp: &LinearProgram, binaries: &[usize], cfg: &MipConfig) -> MipOutcome {
    let start = Instant::now();
    let mut best_x: Option<Vec<f64>> = None;
    let mut best_obj = cfg.incumbent_objective;
    let mut nodes = 0usize;
    let mut budget_hit = false;
    // Stack of (fixed (var, value)) decisions.
    let mut stack: Vec<Vec<(usize, u8)>> = vec![Vec::new()];
    let mut root_bound = f64::NEG_INFINITY;

    while let Some(fixed) = stack.pop() {
        if nodes >= cfg.max_nodes || start.elapsed() > cfg.time_limit {
            budget_hit = true;
            break;
        }
        nodes += 1;

        // Build the node LP: base + binary box + fixings.
        let mut node = lp.clone();
        for &b in binaries {
            node.add(Constraint::le(vec![(b, 1.0)], 1.0));
        }
        for &(v, val) in &fixed {
            node.add(Constraint::eq(vec![(v, 1.0)], val as f64));
        }

        let (x, obj) = match simplex::solve(&node) {
            LpOutcome::Optimal { x, objective } => (x, objective),
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                // A bounded-binary relaxation can only be unbounded via
                // continuous vars; treat as no useful bound from here.
                (vec![], f64::NEG_INFINITY)
            }
        };
        if fixed.is_empty() {
            root_bound = obj;
        }
        if obj >= best_obj - INT_TOL {
            continue; // pruned by bound
        }
        if x.is_empty() {
            continue;
        }

        // Most fractional binary.
        #[expect(clippy::expect_used, reason = "LP solutions are finite")]
        let frac = binaries
            .iter()
            .map(|&b| (b, (x[b] - x[b].round()).abs()))
            .filter(|&(_, f)| f > INT_TOL)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("fractions are finite"));

        match frac {
            None => {
                // Integer feasible.
                best_obj = obj;
                best_x = Some(x);
            }
            Some((b, _)) => {
                // Depth-first: explore the rounding-up branch first (it
                // tends to find feasible allocations quickly).
                let mut up = fixed.clone();
                up.push((b, 1));
                let mut down = fixed;
                down.push((b, 0));
                stack.push(down);
                stack.push(up);
            }
        }
    }

    let status = if best_x.is_none() && !budget_hit && best_obj.is_infinite() {
        MipStatus::Infeasible
    } else if budget_hit {
        MipStatus::BudgetExhausted
    } else {
        MipStatus::Optimal
    };
    let lower_bound = match status {
        MipStatus::Optimal => best_obj,
        _ => root_bound,
    };
    MipOutcome {
        x: best_x,
        objective: best_obj,
        lower_bound,
        status,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack() {
        // max 10a + 6b + 4c s.t. a+b+c ≤ 2 (binary) → {a, b} = 16.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(0, -10.0);
        lp.set_objective(1, -6.0);
        lp.set_objective(2, -4.0);
        lp.add(Constraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 2.0));
        let out = solve_binary(&lp, &[0, 1, 2], &MipConfig::default());
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective + 16.0).abs() < 1e-6);
        let x = out.x.unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6 && (x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_relaxation_is_rounded_away() {
        // max a+b s.t. a + b ≤ 1.5 with binaries → 1 (LP relax: 1.5).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -1.0);
        lp.add(Constraint::le(vec![(0, 1.0), (1, 1.0)], 1.5));
        let out = solve_binary(&lp, &[0, 1], &MipConfig::default());
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // a + b = 1.5 with a, b binary is infeasible... LP feasible though.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.add(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 1.5));
        let out = solve_binary(&lp, &[0, 1], &MipConfig::default());
        assert_eq!(out.status, MipStatus::Infeasible);
        assert!(out.x.is_none());
    }

    #[test]
    fn mixed_integer_continuous() {
        // min y s.t. y ≥ 2.5 a, a binary, a ≥ 1 (forced) → y = 2.5.
        let mut lp = LinearProgram::new(2); // a, y
        lp.set_objective(1, 1.0);
        lp.add(Constraint::ge(vec![(1, 1.0), (0, -2.5)], 0.0));
        lp.add(Constraint::ge(vec![(0, 1.0)], 1.0));
        let out = solve_binary(&lp, &[0], &MipConfig::default());
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - 2.5).abs() < 1e-6);
    }

    #[test]
    fn incumbent_prunes_everything() {
        // Incumbent equal to the optimum: nothing better exists, so the
        // search returns no x but keeps the incumbent objective.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add(Constraint::ge(vec![(0, 1.0)], 1.0));
        let cfg = MipConfig {
            incumbent_objective: 1.0,
            ..Default::default()
        };
        let out = solve_binary(&lp, &[0], &cfg);
        assert!(out.x.is_none());
        assert!((out.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn node_budget_reports_bound() {
        // An odd-cycle vertex cover: the LP relaxation is fractional
        // (all 0.5), so a 1-node budget must stop before integrality.
        let mut lp = LinearProgram::new(3);
        for v in 0..3 {
            lp.set_objective(v, 1.0 + v as f64);
        }
        lp.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
        lp.add(Constraint::ge(vec![(1, 1.0), (2, 1.0)], 1.0));
        lp.add(Constraint::ge(vec![(0, 1.0), (2, 1.0)], 1.0));
        let cfg = MipConfig {
            max_nodes: 1,
            ..Default::default()
        };
        let out = solve_binary(&lp, &[0, 1, 2], &cfg);
        assert_eq!(out.status, MipStatus::BudgetExhausted);
        assert!(out.lower_bound.is_finite());
        // And with a real budget it solves to optimality: cover {0, 1}.
        let full = solve_binary(&lp, &[0, 1, 2], &MipConfig::default());
        assert_eq!(full.status, MipStatus::Optimal);
        assert!((full.objective - 3.0).abs() < 1e-6);
    }
}
