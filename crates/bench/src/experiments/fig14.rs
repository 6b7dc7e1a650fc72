//! Fig 14: racks meeting their charging-time SLA versus MSB power limit,
//! priority-aware versus the global baseline, at medium and high discharge.

use recharge_dynamo::Strategy;
use recharge_sim::DischargeLevel;
use recharge_units::Priority;

use crate::experiments::common::{msb_scenario, paper_counts, Deployment};
use crate::{fast_mode, ExperimentReport, Table};

/// The swept full-scale limits: 2.6 MW down to 2.2 MW.
#[must_use]
fn limits_mw() -> Vec<f64> {
    let step = if fast_mode() { 0.1 } else { 0.05 };
    let mut v = Vec::new();
    let mut limit: f64 = 2.6;
    while limit > 2.2 - 1e-9 {
        v.push((limit * 100.0).round() / 100.0);
        limit -= step;
    }
    v
}

/// Runs one sweep of SLA attainment for a strategy at a discharge level over
/// the given counts, returning `(limit, met_p1, met_p2, met_p3)` rows.
#[must_use]
pub fn sweep(
    counts: (usize, usize, usize),
    strategy: Strategy,
    discharge: DischargeLevel,
    seed: u64,
) -> Vec<(f64, usize, usize, usize)> {
    limits_mw()
        .into_iter()
        .map(|limit_mw| {
            let metrics = msb_scenario(
                counts,
                limit_mw,
                discharge,
                Deployment::PriorityAware,
                Some(strategy),
                seed,
            )
            .build()
            .run();
            (
                limit_mw,
                metrics.sla_summary(Priority::P1).met,
                metrics.sla_summary(Priority::P2).met,
                metrics.sla_summary(Priority::P3).met,
            )
        })
        .collect()
}

/// Renders one sweep as a table section.
pub(crate) fn render_sweep(
    label: &str,
    counts: (usize, usize, usize),
    rows: &[(f64, usize, usize, usize)],
) -> String {
    let mut table = Table::new(&["limit (MW)", "P1 met", "P2 met", "P3 met", "total"]);
    for &(limit, p1, p2, p3) in rows {
        table.row(&[
            format!("{limit:.2}"),
            format!("{p1}/{}", counts.0),
            format!("{p2}/{}", counts.1),
            format!("{p3}/{}", counts.2),
            format!("{}", p1 + p2 + p3),
        ]);
    }
    format!("{label}\n{}", table.render())
}

/// Runs the Fig 14 comparison (both discharge levels, both algorithms).
#[must_use]
pub fn run() -> ExperimentReport {
    let counts = paper_counts();
    let mut sections = Vec::new();
    for (dl, name) in [
        (DischargeLevel::Medium, "medium"),
        (DischargeLevel::High, "high"),
    ] {
        let aware = sweep(counts, Strategy::PriorityAware, dl, 0xF14);
        let global = sweep(counts, Strategy::Global, dl, 0xF14);
        sections.push(render_sweep(
            &format!("priority-aware charging, {name} discharge:"),
            counts,
            &aware,
        ));
        sections.push(render_sweep(
            &format!("global charging (baseline), {name} discharge:"),
            counts,
            &global,
        ));

        // Headline comparison at the tightest limit.
        let last_aware = aware.last().copied().unwrap_or_default();
        let last_global = global.last().copied().unwrap_or_default();
        sections.push(format!(
            "at the {:.2} MW limit ({name} discharge): priority-aware protects {} P1 racks, \
             global protects {} — the paper's shape (P1 penalized first under global, last \
             under priority-aware).",
            last_aware.0, last_aware.1, last_global.1
        ));
    }
    sections.push(
        "paper shape: as the limit shrinks, priority-aware sacrifices P3 first, then P2, and \
         satisfies P1 as long as possible; the global baseline starves P1 first because its \
         uniform rate is below P1's stricter SLA requirement."
            .to_owned(),
    );

    ExperimentReport {
        id: "fig14",
        title: "Racks meeting the charging-time SLA vs power limit (medium/high discharge)",
        sections,
    }
}
