//! `scpg-flow` — command-line front end to the SCPG design flow.
//!
//! ```text
//! scpg-flow <netlist.v> --clock <net> [--out <dir>] [--energy-pj <E>]
//!           [--fanout <N>] [--library <file.lib>]
//! ```
//!
//! Reads a structural Verilog netlist (the subset emitted by this
//! workspace — see `scpg_netlist::parse_verilog`), runs the full Fig. 5
//! flow against the bundled 90 nm kit — or against a Liberty library
//! given with `--library`, read by `scpg_liberty::parse_liberty` and
//! evaluated through its NLDM tables, as `POST /v1/libraries` uploads
//! are — and writes next to the netlist:
//!
//! * `<name>_scpg.v`   — the transformed netlist,
//! * `<name>_split.v`  — the two-domain split form (flow step 1),
//! * `<name>.upf`      — the power-intent file,
//! * a stage log on stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use scpg::ScpgFlow;
use scpg_liberty::{EvalBackend, Library};
use scpg_netlist::{emit_verilog, parse_verilog};
use scpg_units::Energy;

struct Args {
    input: PathBuf,
    clock: String,
    out_dir: Option<PathBuf>,
    energy_pj: f64,
    fanout: usize,
    library: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut input = None;
    let mut clock = "clk".to_string();
    let mut out_dir = None;
    let mut energy_pj = 2.0;
    let mut fanout = 24;
    let mut library = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clock" => clock = it.next().ok_or("--clock needs a net name")?,
            "--library" => {
                library = Some(PathBuf::from(it.next().ok_or("--library needs a file")?))
            }
            "--out" => out_dir = Some(PathBuf::from(it.next().ok_or("--out needs a dir")?)),
            "--energy-pj" => {
                energy_pj = it
                    .next()
                    .ok_or("--energy-pj needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --energy-pj: {e}"))?
            }
            "--fanout" => {
                fanout = it
                    .next()
                    .ok_or("--fanout needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --fanout: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: scpg-flow <netlist.v> --clock <net> \
                            [--out <dir>] [--energy-pj <E>] [--fanout <N>] \
                            [--library <file.lib>]"
                    .to_string())
            }
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        input: input.ok_or("missing input netlist (try --help)")?,
        clock,
        out_dir,
        energy_pj,
        fanout,
        library,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input.display()))?;
    let lib = match &args.library {
        Some(path) => {
            let lib_text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let parsed = scpg_liberty::parse_liberty(&lib_text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "loaded library `{}` from {}",
                parsed.library.name(),
                path.display()
            );
            parsed.library.with_backend(EvalBackend::Table)
        }
        None => Library::ninety_nm(),
    };
    let netlist = parse_verilog(&text, &lib).map_err(|e| e.to_string())?;
    netlist.validate(&lib).map_err(|e| e.to_string())?;
    println!(
        "parsed `{}`: {} cells, {} nets",
        netlist.name(),
        netlist.instances().len(),
        netlist.nets().len()
    );

    let report = ScpgFlow::new(&lib)
        .with_workload_energy(Energy::from_pj(args.energy_pj))
        .with_cts_fanout(args.fanout)
        .run(&netlist, &args.clock)
        .map_err(|e| e.to_string())?;
    for stage in &report.stages {
        println!("[{}] {}", stage.stage, stage.detail);
    }

    let dir = args
        .out_dir
        .or_else(|| args.input.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let base = netlist.name().to_string();
    let scpg_v = dir.join(format!("{base}_scpg.v"));
    let split_v = dir.join(format!("{base}_split.v"));
    let upf = dir.join(format!("{base}.upf"));
    std::fs::write(
        &scpg_v,
        emit_verilog(&report.design.netlist, &lib).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(&split_v, &report.split_verilog).map_err(|e| e.to_string())?;
    std::fs::write(&upf, &report.upf).map_err(|e| e.to_string())?;
    println!(
        "wrote {}, {}, {}",
        scpg_v.display(),
        split_v.display(),
        upf.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("scpg-flow: {msg}");
            ExitCode::FAILURE
        }
    }
}
