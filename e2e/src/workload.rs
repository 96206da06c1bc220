//! The four workloads: what they feed the mapper and why.
//!
//! The one-shot workloads run fixed design suites, so their quality metrics
//! (delay and area geomeans) do not depend on the seed; the seed shuffles
//! the order of every pass. `serve_mixed` draws its traffic — request mix,
//! fresh random designs and edit chains — from the seed.

use dagmap_benchgen as benchgen;
use dagmap_genlib::Library;
use dagmap_netlist::{blif, Network, SubjectGraph};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ISCAS-85 analogues under lib2 `dag`, lib2 `dag --recover` and 44-3
    /// `dag`: the paper's table inputs.
    OneshotIscas,
    /// Subjects of ~10⁵ nodes under lib2, where the linear-time layers
    /// dominate and the working set exceeds the caches.
    OneshotLarge,
    /// Boolean and hybrid matching (k = 4, lib2).
    OneshotBoolean,
    /// The daemon under mixed warm / first-seen / remap traffic.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::OneshotIscas,
        Workload::OneshotLarge,
        Workload::OneshotBoolean,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotIscas => "oneshot_iscas",
            Workload::OneshotLarge => "oneshot_large",
            Workload::OneshotBoolean => "oneshot_boolean",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the libraries the workload maps into — the program's set-up.
    pub fn libraries(self) -> Vec<Library> {
        match self {
            Workload::OneshotIscas | Workload::ServeMixed => {
                vec![Library::lib2_like(), Library::lib_44_3_like()]
            }
            Workload::OneshotLarge | Workload::OneshotBoolean => vec![Library::lib2_like()],
        }
    }
}

/// Library positions in [`Workload::libraries`].
const LIB2: usize = 0;
const LIB_44_3: usize = 1;

/// Cut width of the Boolean and hybrid matchers.
pub const BOOL_K: usize = 4;

/// How a one-shot job maps its design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Structural DAG covering (`dagmap map`).
    Dag,
    /// Structural DAG covering plus area recovery (`--recover`).
    DagRecover,
    /// Priority-cut Boolean matching (`--algo boolean`).
    Boolean,
    /// Structural and Boolean matches together (`--algo hybrid`).
    Hybrid,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Dag => "dag",
            Engine::DagRecover => "dag-recover",
            Engine::Boolean => "boolean",
            Engine::Hybrid => "hybrid",
        }
    }
}

/// One design under one library and engine. Every pass of a one-shot
/// workload maps each job once.
#[derive(Debug, Clone)]
pub struct Job {
    /// `design/library/engine`.
    pub name: String,
    /// Index into the workload's libraries.
    pub lib: usize,
    /// How the job maps.
    pub engine: Engine,
    /// The input BLIF text — what the op is handed.
    pub blif: String,
    /// The input network, for checking outputs against.
    pub input: Network,
}

/// A named design as BLIF text.
pub struct Design {
    /// Design name.
    pub name: &'static str,
    /// BLIF text.
    pub blif: String,
}

/// Serializes a generated design.
///
/// # Panics
///
/// If the generator's network cannot be written as BLIF (a generator bug).
pub fn design(name: &'static str, net: &Network) -> Design {
    Design {
        name,
        blif: blif::to_string(net).expect("generated designs serialize to BLIF"),
    }
}

/// The c7552 analogue as the BLIF of its NAND2/INV subject network: its
/// wide XORs cannot be written as BLIF cubes (`blif::to_string` refuses
/// XORs over 16 inputs), so the op receives the decomposed form.
fn c7552_subject() -> Network {
    SubjectGraph::from_network(&benchgen::c7552_like())
        .expect("c7552 analogue decomposes")
        .into_network()
}

/// A 20k-gate, 256-input random network (tens of thousands of subject
/// nodes, thousands of outputs). The seeds are fixed so the workload's
/// quality metrics are seed-independent.
fn large_random(seed: u64) -> Network {
    benchgen::random_network_with(&benchgen::RandomNetSpec {
        inputs: 256,
        gates: 20_000,
        seed,
        ..benchgen::RandomNetSpec::default()
    })
}

fn cross(designs: Vec<Design>, configs: &[(usize, Engine)], lib_names: &[&str]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for d in designs {
        let input = blif::parse(&d.blif).expect("generated BLIF re-parses");
        for &(lib, engine) in configs {
            jobs.push(Job {
                name: format!("{}/{}/{}", d.name, lib_names[lib], engine.name()),
                lib,
                engine,
                blif: d.blif.clone(),
                input: input.clone(),
            });
        }
    }
    jobs
}

/// The jobs of a one-shot workload (`None` for `serve_mixed`). `smoke`
/// keeps one small design.
///
/// Parity trees stay out of every BLIF-in workload: `parity_tree(n)`
/// serializes to 2ⁿ⁻¹ cubes, and parity16 re-parses to 132k nodes.
pub fn oneshot_jobs(workload: Workload, smoke: bool) -> Option<Vec<Job>> {
    let libs = ["lib2", "44-3"];
    let jobs = match workload {
        Workload::OneshotIscas => {
            let designs = if smoke {
                vec![design("c2670", &benchgen::c2670_like())]
            } else {
                vec![
                    design("c2670", &benchgen::c2670_like()),
                    design("c3540", &benchgen::c3540_like()),
                    design("c5315", &benchgen::c5315_like()),
                    design("c6288", &benchgen::c6288_like()),
                    design("c7552", &c7552_subject()),
                ]
            };
            let configs = [
                (LIB2, Engine::Dag),
                (LIB2, Engine::DagRecover),
                (LIB_44_3, Engine::Dag),
            ];
            cross(designs, &configs, &libs)
        }
        Workload::OneshotLarge => {
            let designs = if smoke {
                vec![design("mult16", &benchgen::array_multiplier(16))]
            } else {
                vec![
                    design("mult64", &benchgen::array_multiplier(64)),
                    design("rand20k_a", &large_random(0x1A26E)),
                    design("rand20k_b", &large_random(0x1A26F)),
                ]
            };
            cross(designs, &[(LIB2, Engine::Dag)], &libs)
        }
        Workload::OneshotBoolean => {
            let designs = if smoke {
                vec![design("add16", &benchgen::ripple_adder(16))]
            } else {
                vec![
                    design("add16", &benchgen::ripple_adder(16)),
                    design("ks16", &benchgen::kogge_stone_adder(16)),
                    design("alu8", &benchgen::alu(8)),
                    design("cmp16", &benchgen::comparator(16)),
                    design("mux5", &benchgen::mux_tree(5)),
                    design("bshift16", &benchgen::barrel_shifter(16)),
                    design("c3540", &benchgen::c3540_like()),
                    design("mult8", &benchgen::array_multiplier(8)),
                ]
            };
            cross(
                designs,
                &[(LIB2, Engine::Boolean), (LIB2, Engine::Hybrid)],
                &libs,
            )
        }
        Workload::ServeMixed => return None,
    };
    Some(jobs)
}
