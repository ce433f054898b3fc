//! The `scpg_flow` binary end to end with `--library`: a Liberty file
//! (the kit serialized by `write_liberty`) drives the whole flow, and a
//! malformed one is refused with the parser's line and column.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use scpg_circuits::generate_multiplier;
use scpg_liberty::{parse_liberty, write_liberty, Library};
use scpg_netlist::emit_verilog;

/// A fresh scratch directory per test, holding a 4-bit multiplier
/// netlist.
fn workdir(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("scpg-flow-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let lib = Library::ninety_nm();
    let (nl, _) = generate_multiplier(&lib, 4);
    let netlist = dir.join("mult.v");
    std::fs::write(&netlist, emit_verilog(&nl, &lib).unwrap()).unwrap();
    (dir, netlist)
}

fn run_flow(netlist: &Path, library: &Path, out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scpg_flow"))
        .arg(netlist)
        .args(["--clock", "clk", "--library"])
        .arg(library)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run scpg_flow")
}

#[test]
fn flow_runs_on_a_liberty_library() {
    let (dir, netlist) = workdir("ok");
    let library = dir.join("kit90.lib");
    std::fs::write(&library, write_liberty(&Library::ninety_nm())).unwrap();
    let out = dir.join("out");

    let run = run_flow(&netlist, &library, &out);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "exit {:?}\nstdout: {stdout}\nstderr: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("loaded library"), "{stdout}");
    for file in ["mult4x4_scpg.v", "mult4x4_split.v", "mult4x4.upf"] {
        let path = out.join(file);
        let len = std::fs::metadata(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .len();
        assert!(len > 0, "{} is empty", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_library_fails_with_its_line_and_column() {
    let (dir, netlist) = workdir("bad");
    let text = "library (broken) {\n  cell (INV_X1) {\n    area : ;\n  }\n}\n";
    let err = parse_liberty(text).expect_err("the source is malformed");
    assert!(err.line > 0 && err.column > 0, "{err:?}");
    let library = dir.join("broken.lib");
    std::fs::write(&library, text).unwrap();

    let run = run_flow(&netlist, &library, &dir.join("out"));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "a malformed library must fail");
    assert!(
        stderr.contains(&format!("line {}, column {}", err.line, err.column)),
        "{stderr}"
    );
    assert!(!dir.join("out").exists(), "nothing is written on failure");
    let _ = std::fs::remove_dir_all(&dir);
}
