//! Failure/recovery across every DDP model, plus multi-failure scenarios.

use minos_cluster::Cluster;
use minos_types::{ClusterConfig, DdpModel, Key, NodeId, PersistencyModel, ScopeId};
use std::time::Duration;

fn fast_cfg(nodes: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::cloudlab().with_nodes(nodes);
    cfg.wire_latency_ns = 20_000;
    cfg.failure_timeout_ns = 40_000_000;
    cfg
}

#[test]
fn every_model_survives_a_crash() {
    for model in DdpModel::all_lin() {
        let cl = Cluster::spawn(fast_cfg(3), model);
        let sc = (model.persistency == PersistencyModel::Scope).then_some(ScopeId(1));
        cl.put_scoped(NodeId(0), Key(1), "pre".into(), sc).unwrap();
        if let Some(sc) = sc {
            cl.persist_scope(NodeId(0), sc).unwrap();
        }

        cl.crash_node(NodeId(1));
        assert!(
            cl.await_failure_detection(NodeId(1), Duration::from_secs(5)),
            "{model}: detection failed"
        );
        let sc2 = (model.persistency == PersistencyModel::Scope).then_some(ScopeId(2));
        cl.put_scoped(NodeId(0), Key(1), "post".into(), sc2)
            .unwrap_or_else(|e| panic!("{model}: write during outage: {e}"));
        if let Some(sc2) = sc2 {
            cl.persist_scope(NodeId(0), sc2).unwrap();
        }
        assert_eq!(cl.get(NodeId(2), Key(1)).unwrap(), "post", "{model}");
        cl.shutdown();
    }
}

#[test]
fn every_model_recovers_a_crashed_node() {
    for model in DdpModel::all_lin() {
        let cl = Cluster::spawn(fast_cfg(3), model);
        let scoped = model.persistency == PersistencyModel::Scope;
        let sc = scoped.then_some(ScopeId(1));
        cl.put_scoped(NodeId(0), Key(1), "v1".into(), sc).unwrap();
        if let Some(sc) = sc {
            cl.persist_scope(NodeId(0), sc).unwrap();
        }

        cl.crash_node(NodeId(2));
        assert!(cl.await_failure_detection(NodeId(2), Duration::from_secs(5)));
        let sc2 = scoped.then_some(ScopeId(2));
        cl.put_scoped(NodeId(1), Key(2), "during".into(), sc2)
            .unwrap();
        if let Some(sc2) = sc2 {
            cl.persist_scope(NodeId(1), sc2).unwrap();
        }

        cl.recover_node(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(
            cl.get(NodeId(2), Key(1)).unwrap(),
            "v1",
            "{model}: pre-crash data"
        );
        // Background-persistency models may not have the in-flight write
        // durable at the donor at ship time for Event; but the threaded
        // facade quiesces between calls, so it is.
        assert_eq!(
            cl.get(NodeId(2), Key(2)).unwrap(),
            "during",
            "{model}: missed update not shipped"
        );
        cl.shutdown();
    }
}

#[test]
fn five_node_cluster_tolerates_two_failures() {
    let cl = Cluster::spawn(fast_cfg(5), DdpModel::lin(PersistencyModel::Synchronous));
    cl.put(NodeId(0), Key(1), "full".into()).unwrap();

    cl.crash_node(NodeId(3));
    cl.crash_node(NodeId(4));
    assert!(cl.await_failure_detection(NodeId(3), Duration::from_secs(5)));
    assert!(cl.await_failure_detection(NodeId(4), Duration::from_secs(5)));

    cl.put(NodeId(1), Key(1), "three-left".into()).unwrap();
    for n in 0..3 {
        assert_eq!(cl.get(NodeId(n), Key(1)).unwrap(), "three-left");
    }

    // Recover both, in sequence, from different donors.
    cl.recover_node(NodeId(3), NodeId(0)).unwrap();
    cl.recover_node(NodeId(4), NodeId(3)).unwrap();
    assert_eq!(cl.get(NodeId(4), Key(1)).unwrap(), "three-left");
    cl.put(NodeId(4), Key(2), "whole-again".into()).unwrap();
    assert_eq!(cl.get(NodeId(0), Key(2)).unwrap(), "whole-again");
    cl.shutdown();
}

#[test]
fn origin_node_crash_mid_write_under_every_model() {
    // The crash lands on the *coordinator* of the traffic: clients
    // hammering node 1 while node 1 dies. Every in-flight op must fail
    // fast (no wedged submit), and the surviving majority must keep
    // serving under all five models.
    for model in DdpModel::all_lin() {
        let cl = std::sync::Arc::new(Cluster::spawn(fast_cfg(3), model));
        let scoped = model.persistency == PersistencyModel::Scope;
        let writer = {
            let cl = std::sync::Arc::clone(&cl);
            std::thread::spawn(move || {
                let mut completed = 0;
                for i in 0..30u32 {
                    let sc = scoped.then_some(ScopeId(7));
                    if cl
                        .put_scoped(NodeId(1), Key(1), format!("v{i}").into(), sc)
                        .is_ok()
                    {
                        completed += 1;
                    }
                }
                completed
            })
        };
        std::thread::sleep(Duration::from_millis(3));
        cl.crash_node(NodeId(1));
        assert!(
            cl.await_failure_detection(NodeId(1), Duration::from_secs(5)),
            "{model}: detection failed"
        );
        let start = std::time::Instant::now();
        let completed = writer.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{model}: in-flight ops wedged after origin crash"
        );
        assert!(completed < 30, "{model}: crash landed after all writes");
        // The survivors still serve reads and writes on the same key.
        let sc = scoped.then_some(ScopeId(8));
        cl.put_scoped(NodeId(0), Key(1), "post-crash".into(), sc)
            .unwrap_or_else(|e| panic!("{model}: write after origin crash: {e}"));
        if let Some(sc) = sc {
            cl.persist_scope(NodeId(0), sc).unwrap();
        }
        assert_eq!(cl.get(NodeId(2), Key(1)).unwrap(), "post-crash", "{model}");
        match std::sync::Arc::try_unwrap(cl) {
            Ok(cl) => cl.shutdown(),
            Err(_) => panic!("cluster still shared"),
        }
    }
}

#[test]
fn two_node_minority_double_crash_under_every_model() {
    // A 5-node cluster loses two nodes (still a majority left) under
    // every model, keeps serving, then recovers both and reconverges.
    for model in DdpModel::all_lin() {
        let cl = Cluster::spawn(fast_cfg(5), model);
        let scoped = model.persistency == PersistencyModel::Scope;
        let sc = scoped.then_some(ScopeId(1));
        cl.put_scoped(NodeId(0), Key(1), "pre".into(), sc).unwrap();
        if let Some(sc) = sc {
            cl.persist_scope(NodeId(0), sc).unwrap();
        }

        cl.crash_node(NodeId(2));
        cl.crash_node(NodeId(4));
        assert!(
            cl.await_failure_detection(NodeId(2), Duration::from_secs(5)),
            "{model}: first crash undetected"
        );
        assert!(
            cl.await_failure_detection(NodeId(4), Duration::from_secs(5)),
            "{model}: second crash undetected"
        );

        let sc2 = scoped.then_some(ScopeId(2));
        cl.put_scoped(NodeId(1), Key(2), "during".into(), sc2)
            .unwrap_or_else(|e| panic!("{model}: write during double outage: {e}"));
        if let Some(sc2) = sc2 {
            cl.persist_scope(NodeId(1), sc2).unwrap();
        }
        for n in [0u16, 1, 3] {
            assert_eq!(
                cl.get(NodeId(n), Key(2)).unwrap(),
                "during",
                "{model}: survivor n{n} missed the write"
            );
        }

        // Recover in sequence; the second rejoiner uses the first as
        // donor, so shipped state must be transitively complete.
        cl.recover_node(NodeId(2), NodeId(0)).unwrap();
        cl.recover_node(NodeId(4), NodeId(2)).unwrap();
        for n in [2u16, 4] {
            assert_eq!(
                cl.get(NodeId(n), Key(1)).unwrap(),
                "pre",
                "{model}: rejoiner n{n} lost pre-crash data"
            );
            assert_eq!(
                cl.get(NodeId(n), Key(2)).unwrap(),
                "during",
                "{model}: rejoiner n{n} missed the outage write"
            );
        }
        cl.shutdown();
    }
}

#[test]
fn writes_in_flight_during_crash_complete_or_fail_cleanly() {
    // A crash concurrent with traffic must never wedge the cluster: the
    // caller either gets a completion (quorum shrank in time) or a
    // timeout error, and subsequent operations work.
    let cl = std::sync::Arc::new(Cluster::spawn(
        fast_cfg(3),
        DdpModel::lin(PersistencyModel::Synchronous),
    ));
    let writer = {
        let cl = std::sync::Arc::clone(&cl);
        std::thread::spawn(move || {
            let mut completed = 0;
            for i in 0..30u32 {
                if cl.put(NodeId(0), Key(1), format!("v{i}").into()).is_ok() {
                    completed += 1;
                }
            }
            completed
        })
    };
    std::thread::sleep(Duration::from_millis(5));
    cl.crash_node(NodeId(2));
    cl.await_failure_detection(NodeId(2), Duration::from_secs(5));
    let completed = writer.join().unwrap();
    assert!(completed > 0, "no write survived the crash window");
    // The cluster still serves.
    cl.put(NodeId(1), Key(9), "alive".into()).unwrap();
    match std::sync::Arc::try_unwrap(cl) {
        Ok(cl) => cl.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn rejoin_while_another_node_is_still_down_under_every_model() {
    // Two of three nodes crash; one rejoins while the other stays down.
    // The rejoiner's rebuilt engine must exclude the still-down peer
    // (its failure notice reached the rejoiner while it was crashed), or
    // every write it coordinates waits forever for that peer's ACK.
    for model in DdpModel::all_lin() {
        let cl = Cluster::spawn(fast_cfg(3), model);
        let scoped = model.persistency == PersistencyModel::Scope;
        cl.crash_node(NodeId(2));
        assert!(
            cl.await_failure_detection(NodeId(2), Duration::from_secs(5)),
            "{model}: first crash undetected"
        );
        cl.crash_node(NodeId(1));
        assert!(
            cl.await_failure_detection(NodeId(1), Duration::from_secs(5)),
            "{model}: second crash undetected"
        );
        cl.rejoin_node(NodeId(1))
            .unwrap_or_else(|e| panic!("{model}: rejoin: {e}"));

        let sc = scoped.then_some(ScopeId(1));
        cl.put_scoped(NodeId(1), Key(1), "rejoined".into(), sc)
            .unwrap_or_else(|e| panic!("{model}: write at the rejoiner: {e}"));
        if let Some(sc) = sc {
            cl.persist_scope(NodeId(1), sc)
                .unwrap_or_else(|e| panic!("{model}: persist at the rejoiner: {e}"));
        }
        assert_eq!(cl.get(NodeId(0), Key(1)).unwrap(), "rejoined", "{model}");
        cl.shutdown();
    }
}
