//! The full Colza pipeline experiment runner: staging daemons + an MPI
//! simulation staging blocks each iteration, with optional mid-run
//! growth of the staging area — the common machinery behind the
//! Fig. 5–10 harnesses.

use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};

use colza::daemon::Session;
use colza::{BlockMeta, CommMode, StagingArea};
use margo::MargoInstance;
use na::Address;
use vizkit::DataSet;

/// Experiment configuration.
#[derive(Clone)]
pub struct PipelineExperiment {
    /// Initial number of staging servers.
    pub servers: usize,
    /// Staging processes per node.
    pub servers_per_node: usize,
    /// Number of simulation (client) ranks.
    pub clients: usize,
    /// Client processes per node.
    pub clients_per_node: usize,
    /// Pipeline communication layer (MoNA or static MPI).
    pub comm: CommMode,
    /// Pipeline script to deploy.
    pub script: catalyst::PipelineScript,
    /// Number of analysis iterations.
    pub iterations: u64,
    /// Servers to add *before* given iterations: `(iteration, how_many)`.
    pub grow_at: Vec<(u64, usize)>,
    /// Virtual-cluster seed (defaults to the hpcsim default).
    pub seed: u64,
}

impl PipelineExperiment {
    /// A basic static experiment with default per-node packing.
    pub fn new(
        servers: usize,
        clients: usize,
        comm: CommMode,
        script: catalyst::PipelineScript,
        iterations: u64,
    ) -> Self {
        Self {
            servers,
            servers_per_node: 4,
            clients,
            clients_per_node: 4,
            comm,
            script,
            iterations,
            grow_at: Vec::new(),
            seed: hpcsim::ClusterConfig::aries().seed,
        }
    }
}

/// Client-observed virtual durations of one iteration's four calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterationTimes {
    /// Iteration number.
    pub iteration: u64,
    /// Staging-area size during this iteration.
    pub servers: usize,
    /// `activate` (2PC) span.
    pub activate_ns: u64,
    /// Total span of rank 0's `stage` calls.
    pub stage_ns: u64,
    /// `execute` span (the pipeline execution time the figures report).
    pub execute_ns: u64,
    /// `deactivate` span.
    pub deactivate_ns: u64,
    /// Whether the pipeline's trigger gate skipped this iteration
    /// (DESIGN.md §15) — `execute` returned `ExecOutcome::Skipped`.
    pub skipped: bool,
}

enum HarnessReq {
    Grow { count: usize },
    Done,
}

/// Block generator shared with every simulated client:
/// `make_blocks(client_rank, iteration, n_clients)`.
pub type MakeBlocks = Arc<dyn Fn(usize, u64, usize) -> Vec<(u64, DataSet)> + Send + Sync>;

/// Runs the experiment. `make_blocks(client_rank, iteration, n_clients)`
/// produces each client's blocks for an iteration. Returns rank 0's
/// per-iteration timings.
pub fn run_pipeline_experiment(
    exp: PipelineExperiment,
    make_blocks: MakeBlocks,
) -> Vec<IterationTimes> {
    assert!(
        exp.grow_at.is_empty() || matches!(exp.comm, CommMode::Mona),
        "a static MPI staging area cannot be resized"
    );
    let mut area = StagingArea::new(hpcsim::ClusterConfig {
        seed: exp.seed,
        ..hpcsim::ClusterConfig::aries()
    });
    area.config_mut().comm = exp.comm;

    let total_growth: usize = exp.grow_at.iter().map(|(_, c)| c).sum();
    let server_nodes =
        (exp.servers + total_growth).div_ceil(exp.servers_per_node);
    area.launch(exp.servers, exp.servers_per_node);
    let contact = area.contact();

    let (req_tx, req_rx): (Sender<HarnessReq>, Receiver<HarnessReq>) = bounded(4);
    let (ack_tx, ack_rx) = bounded::<Vec<Address>>(4);

    // Spawn the simulation ranks (PMI-style bootstrap, as mpirun does).
    let (addr_tx, addr_rx) = crossbeam::channel::unbounded();
    let (list_tx, list_rx) = crossbeam::channel::unbounded::<Vec<Address>>();
    let exp = Arc::new(exp);
    let handles: Vec<_> = (0..exp.clients)
        .map(|rank| {
            let fabric = area.fabric().clone();
            let addr_tx = addr_tx.clone();
            let list_rx = list_rx.clone();
            let exp = Arc::clone(&exp);
            let make_blocks = Arc::clone(&make_blocks);
            let req_tx = req_tx.clone();
            let ack_rx = ack_rx.clone();
            area.cluster().spawn(
                &format!("sim[{rank}]"),
                server_nodes + rank / exp.clients_per_node,
                move || {
                    let endpoint = Arc::new(fabric.open());
                    addr_tx.send((rank, endpoint.address())).unwrap();
                    let members = list_rx.recv().unwrap();
                    let comm = minimpi::MpiComm::from_endpoint(
                        Arc::clone(&endpoint),
                        members,
                        minimpi::Profile::Vendor,
                    );
                    client_body(comm, &exp, contact, &make_blocks, &req_tx, &ack_rx)
                },
            )
        })
        .collect();
    let mut addrs = vec![Address(0); exp.clients];
    for _ in 0..exp.clients {
        let (rank, addr) = addr_rx.recv().unwrap();
        addrs[rank] = addr;
    }
    for _ in 0..exp.clients {
        list_tx.send(addrs.clone()).unwrap();
    }

    // Serve growth requests until the simulation reports completion:
    // newcomers continue the launch's per-node packing.
    while let Ok(req) = req_rx.recv() {
        match req {
            HarnessReq::Grow { count } => {
                let fresh = area.grow(count);
                area.settle();
                ack_tx.send(fresh).unwrap();
            }
            HarnessReq::Done => break,
        }
    }

    let mut results = Vec::new();
    for h in handles {
        results.extend(h.join());
    }
    area.shutdown();
    results
}

const PIPELINE_NAME: &str = "pipeline";

fn client_body(
    sim_comm: minimpi::MpiComm,
    exp: &PipelineExperiment,
    contact: Address,
    make_blocks: &MakeBlocks,
    req_tx: &Sender<HarnessReq>,
    ack_rx: &Receiver<Vec<Address>>,
) -> Vec<IterationTimes> {
    let rank = sim_comm.rank();
    let session = Session::new(MargoInstance::from_endpoint(Arc::clone(sim_comm.endpoint())));
    let (client, admin, ctx) = (&session.client, &session.admin, &session.ctx);
    let script_json = exp.script.to_json();

    // Rank 0 deploys the pipeline everywhere before anyone proceeds.
    if rank == 0 {
        let view = client.view_from(contact).expect("staging area reachable");
        admin
            .create_pipeline_on_all(&view, "catalyst", PIPELINE_NAME, &script_json)
            .expect("pipeline deploys");
    }
    sim_comm.barrier().unwrap();

    let handle = client
        .distributed_handle(contact, PIPELINE_NAME)
        .expect("handle");
    let mut results = Vec::new();

    for iter in 0..exp.iterations {
        // Elastic growth before this iteration (rank 0 drives it).
        let growth: usize = exp
            .grow_at
            .iter()
            .filter(|&&(at, _)| at == iter)
            .map(|&(_, c)| c)
            .sum();
        if growth > 0 {
            if rank == 0 {
                req_tx.send(HarnessReq::Grow { count: growth }).unwrap();
                for addr in ack_rx.recv().expect("harness grew the group") {
                    admin
                        .create_pipeline(addr, "catalyst", PIPELINE_NAME, &script_json)
                        .expect("deploy on new servers");
                }
            }
            sim_comm.barrier().unwrap();
            handle.refresh_view().expect("refreshed view");
        }

        let mut t = IterationTimes {
            iteration: iter,
            ..Default::default()
        };
        if rank == 0 {
            let before = ctx.now();
            handle.activate(iter).expect("activate");
            t.activate_ns = ctx.now() - before;
            t.servers = handle.members().len();
        }
        sim_comm.barrier().unwrap();

        // Producing the blocks is the simulation's compute phase.
        let blocks = ctx.charge_compute(|| make_blocks(rank, iter, exp.clients));
        let before = ctx.now();
        stage_blocks(&handle, iter, &blocks).expect("stage");
        t.stage_ns = ctx.now() - before;
        sim_comm.barrier().unwrap();

        if rank == 0 {
            let before = ctx.now();
            let outcome = handle.execute(iter).expect("execute");
            t.execute_ns = ctx.now() - before;
            t.skipped = outcome.is_skipped();
            let before = ctx.now();
            handle.deactivate(iter).expect("deactivate");
            t.deactivate_ns = ctx.now() - before;
            results.push(t);
        }
        sim_comm.barrier().unwrap();
    }

    if rank == 0 {
        req_tx.send(HarnessReq::Done).unwrap();
    }
    sim_comm.barrier().unwrap();
    results
}

/// Serializes blocks and stages them through a handle.
pub fn stage_blocks(
    handle: &colza::DistributedPipelineHandle,
    iteration: u64,
    blocks: &[(u64, DataSet)],
) -> Result<(), colza::ColzaError> {
    for (block_id, ds) in blocks {
        let payload: Bytes = colza::codec::dataset_to_bytes(ds);
        handle.stage(
            BlockMeta::new("block".to_string(), *block_id, iteration, payload.len()),
            &payload,
        )?;
    }
    Ok(())
}
