//! The multi-tenant DSM service on the real-thread runtime.

use std::fmt::Write as _;

use tmk_core::service::{ServiceConfig, ServiceReport};
use tmk_machines::Platform;

use super::jobs::RunData;
use super::plan::{Experiment, Plan, Run, Section};
use super::workload::{ServiceSpec, WorkloadSpec};
use super::Tier;

fn plan_service(p: &mut Plan, spec: ServiceSpec) -> Run {
    p.run(
        Platform::as_sim(spec.config.nodes),
        &WorkloadSpec::Service(spec),
    )
}

fn service_block(d: &RunData) -> Result<&ServiceReport, String> {
    let block = d.report.service.as_ref();
    block.ok_or_else(|| "service run carried no service block".to_string())
}

pub(super) fn service(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let nodes: usize = if quick { 2 } else { 4 };
    let tenant_counts: &[usize] = if quick { &[2, 3] } else { &[2, 4, 8] };
    let (keys, windows, offered): (usize, u64, u64) = if quick { (16, 3, 6) } else { (64, 8, 16) };

    let base = |tenants: usize| ServiceSpec {
        config: ServiceConfig {
            keys_per_tenant: keys,
            windows,
            offered_per_window: offered,
            ..ServiceConfig::new(nodes, tenants)
        },
        drop_pm: 0,
        delay_pm: 0,
        crash: false,
    };
    // label, drop per-mille, delay per-mille, crash scheduled, expected
    // rollbacks.
    let fault_variants: [(&'static str, u64, u64, bool, u64); 4] = [
        ("drop 5%", 50, 0, false, 0),
        ("drop+delay", 50, 50, false, 0),
        ("crash", 0, 0, true, 1),
        ("drop+delay+crash", 50, 50, true, 1),
    ];

    // --- tenants: multi-tenant runs vs fault-free solo baselines ----------
    let tenants = Section::plan("tenants", |p| {
        let rows: Vec<(usize, Run, Vec<Run>)> = tenant_counts
            .iter()
            .map(|&tc| {
                let multi = plan_service(p, base(tc));
                let solos = (0..tc).map(|t| {
                    let mut spec = base(tc);
                    spec.config.solo = Some(t);
                    plan_service(p, spec)
                });
                (tc, multi, solos.collect())
            })
            .collect();
        Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "Multi-tenant service on the real-thread runtime ({nodes} nodes, \
                 Zipf 0.9 clients, {offered} req/tenant/window over {windows} \
                 windows):"
            )
            .unwrap();
            for (tc, multi, solos) in &rows {
                let svc = service_block(ctx.data(*multi)?)?;
                if svc.total_shed != 0 {
                    return Err(format!(
                        "{tc} tenants: baseline offered load shed {} requests; \
                         the admission gate must absorb it",
                        svc.total_shed
                    ));
                }
                writeln!(
                    out,
                    "  {tc} tenants: epochs={} makespan={}us lock-counter={} shed=0",
                    svc.epochs, svc.makespan_us, svc.lock_counter,
                )
                .unwrap();
                for (t, (rep, &solo)) in svc.tenants.iter().zip(solos).enumerate() {
                    let srep = &service_block(ctx.data(solo)?)?.tenants[0];
                    if srep.checksum != rep.checksum {
                        return Err(format!(
                            "{tc} tenants: tenant {t} memory diverged from its \
                             fault-free solo baseline ({:#018x} vs {:#018x})",
                            rep.checksum, srep.checksum
                        ));
                    }
                    if srep.offered != rep.offered || srep.completed != rep.completed {
                        return Err(format!(
                            "{tc} tenants: tenant {t} schedule diverged from solo \
                             (completed {} vs {})",
                            rep.completed, srep.completed
                        ));
                    }
                    writeln!(
                        out,
                        "    tenant {t}: offered={:<4} completed={:<4} shed={:<3} \
                         {:>6} req/s  p50={}us p99={}us  checksum ok",
                        rep.offered,
                        rep.completed,
                        rep.shed,
                        rep.throughput_rps,
                        rep.p50_us,
                        rep.p99_us,
                    )
                    .unwrap();
                }
            }
            Ok(out)
        })
    });

    // --- faults: drop/delay/crash sweep must not change any tenant --------
    let faults = Section::plan("faults", |p| {
        let rows: Vec<_> = tenant_counts
            .iter()
            .map(|&tc| {
                let clean = plan_service(p, base(tc));
                let faulty = fault_variants.map(|(label, drop_pm, delay_pm, crash, rollbacks)| {
                    let spec = ServiceSpec {
                        drop_pm,
                        delay_pm,
                        crash,
                        ..base(tc)
                    };
                    (label, plan_service(p, spec), rollbacks)
                });
                (tc, clean, faulty)
            })
            .collect();
        Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "Fault sweep: seeded link faults and a scheduled node crash \
                 against the live service.\nEvery tenant's results must stay \
                 byte-identical to the fault-free run:"
            )
            .unwrap();
            for &(tc, clean, faulty) in &rows {
                let clean = ctx.data(clean)?;
                let csvc = service_block(clean)?;
                writeln!(out, "  {tc} tenants:").unwrap();
                for (label, run, rollbacks) in faulty {
                    let d = ctx.data(run)?;
                    let svc = service_block(d)?;
                    if d.checksums != clean.checksums || svc.tenants != csvc.tenants {
                        return Err(format!(
                            "{tc} tenants, {label}: per-tenant results diverged \
                             from the fault-free run"
                        ));
                    }
                    if svc.rollbacks != rollbacks || svc.crashes != rollbacks {
                        return Err(format!(
                            "{tc} tenants, {label}: expected {rollbacks} \
                             crash/rollback(s), saw crashes={} rollbacks={}",
                            svc.crashes, svc.rollbacks
                        ));
                    }
                    if svc.total_shed != 0 {
                        return Err(format!(
                            "{tc} tenants, {label}: faults caused {} sheds at \
                             baseline offered load",
                            svc.total_shed
                        ));
                    }
                    writeln!(
                        out,
                        "    {label:<16}: crashes={} rollbacks={} checkpoints={} \
                         shed={}  all tenants byte-identical",
                        svc.crashes, svc.rollbacks, svc.checkpoints, svc.total_shed,
                    )
                    .unwrap();
                }
            }
            Ok(out)
        })
    });

    // --- overload: bounded queues shed loudly and deterministically -------
    let overload = Section::plan("overload", |p| {
        let overload = |drop_pm: u64, crash: bool| {
            let mut spec = ServiceSpec {
                drop_pm,
                crash,
                ..base(tenant_counts[0])
            };
            spec.config.offered_per_window = 40;
            spec.config.queue_cap = 4;
            spec.config.batch_cap = 3;
            spec
        };
        let clean = plan_service(p, overload(0, false));
        let faulty = plan_service(p, overload(50, true));
        Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "Overload: 40 req/tenant/window into queue_cap=4, batch_cap=3. \
                 Load shedding must be loud (counted per tenant) and \
                 fault-invariant:"
            )
            .unwrap();
            let clean = ctx.data(clean)?;
            let csvc = service_block(clean)?;
            if csvc.total_shed == 0 {
                return Err("overload shed nothing; the gate is unbounded".to_string());
            }
            let faulty = ctx.data(faulty)?;
            let fsvc = service_block(faulty)?;
            if fsvc.tenants != csvc.tenants || faulty.checksums != clean.checksums {
                return Err(
                    "drop+crash under overload changed the shed schedule or results".to_string(),
                );
            }
            let completed: u64 = csvc.tenants.iter().map(|t| t.completed).sum();
            if csvc.lock_counter != completed {
                return Err(format!(
                    "lock counter {} disagrees with completed admissions {completed}",
                    csvc.lock_counter
                ));
            }
            for rep in &csvc.tenants {
                writeln!(
                    out,
                    "  tenant {}: offered={:<4} completed={:<4} shed={:<4} \
                     p99={}us",
                    rep.tenant, rep.offered, rep.completed, rep.shed, rep.p99_us,
                )
                .unwrap();
            }
            writeln!(
                out,
                "  total shed={} (identical with drop 5% + node crash: \
                 rollbacks={})",
                csvc.total_shed, fsvc.rollbacks,
            )
            .unwrap();
            Ok(out)
        })
    });

    Experiment {
        id: "service",
        title: "multi-tenant DSM service: tenant isolation, fault survival, graceful overload",
        default: true,
        header: Some(
            "Long-lived DSM cluster serving N tenants behind a bounded \
             admission gate, on the real-thread runtime with crash recovery \
             armed.\nSeeded drops, delays and node crashes must leave every \
             tenant's memory and schedule byte-identical to the fault-free \
             run; overload must shed loudly, never silently."
                .to_string(),
        ),
        sections: vec![tenants, faults, overload],
    }
}
