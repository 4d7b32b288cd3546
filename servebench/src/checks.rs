//! Output checks, run after the timed window. Any failure fails the run.

use crate::drive::Observed;
use crate::traffic::{Kind, Plan};
use gvex_ingest::{check_equivalent, rebuild_views};
use gvex_serve::{answer, ServeState};
use std::path::Path;

/// Checks every kept answer body against [`answer`] on an independently
/// opened state, and the writer daemon's end state against an offline
/// replay of its commits. Returns one message per failed check.
pub fn verify(plan: &Plan, obs: &Observed, store: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    if obs.body_mismatches > 0 {
        failures.push(format!("{} answers differed from an earlier answer", obs.body_mismatches));
    }
    if obs.mutations_short > 0 {
        failures.push(format!("the plan ran out of mutations {} times", obs.mutations_short));
    }
    let unpublished =
        obs.records.iter().filter(|r| r.kind == Kind::Mutate && r.ok() && !r.published).count();
    if unpublished > 0 {
        failures.push(format!("{unpublished} commits published no epoch"));
    }
    let fresh = match ServeState::open(store) {
        Ok(s) => s,
        Err(e) => return vec![format!("reopen store: {e}")],
    };
    let mut items: Vec<&usize> = obs.bodies.keys().collect();
    items.sort();
    for &item in items {
        let req = &plan.catalog.templates[item];
        let want = answer(&fresh, req);
        if !want.ok || want.body != obs.bodies[&item] {
            failures
                .push(format!("answer to {:?} request #{item} differs from answer()", req.kind));
        }
    }
    if let Err(e) = check_writer(plan, obs, &fresh) {
        failures.push(e);
    }
    failures
}

/// Replays the writer daemon's acknowledged commits in an offline
/// [`IngestEngine`](gvex_ingest::IngestEngine), publishing after each as
/// the daemon did, then checks the daemon's final fingerprint against the
/// resulting serving state and the engine's views against a from-scratch
/// rebuild.
fn check_writer(plan: &Plan, obs: &Observed, base: &ServeState) -> Result<(), String> {
    let mut engine =
        crate::setup::daemon_engine(base).map_err(|e| format!("offline engine: {e}"))?;
    for r in obs.records.iter().filter(|r| r.kind == Kind::Mutate && r.ok()) {
        let records = gvex_ingest::parse_jsonl(&plan.mutations[r.item])
            .map_err(|e| format!("mutation {} does not parse: {e}", r.item))?;
        for record in records {
            let op = record.parse().map_err(|e| format!("mutation {}: {e}", r.item))?;
            engine.apply(&op).map_err(|e| format!("offline replay of mutation {}: {e}", r.item))?;
        }
        engine.publish_epoch();
    }
    let state = ServeState::from_parts(
        base.dataset(),
        engine.db().clone(),
        engine.model().clone(),
        engine.views_set(),
    );
    if obs.writer_fingerprint != Some(state.fingerprint()) {
        return Err(format!(
            "writer daemon fingerprint {:?} differs from the offline replay's {}",
            obs.writer_fingerprint,
            state.fingerprint()
        ));
    }
    let cfg = engine.cfg().clone();
    let rebuilt = rebuild_views(engine.model(), engine.db(), &cfg, 1);
    let eq = check_equivalent(&engine.views_set(), &rebuilt, &cfg);
    if !eq.ok {
        return Err(format!("incremental views differ from a rebuild: {}", eq.detail));
    }
    Ok(())
}
