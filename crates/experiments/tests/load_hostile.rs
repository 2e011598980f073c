//! `repro --load` on a hostile WCD1 file: a checksum-correct image
//! whose enum-code columns hold codes outside the catalogue must be
//! refused with a diagnostic and exit 1, never a panic.

use std::process::Command;

use wheels_core::column::{wcd, ColumnarDataset};
use wheels_core::records::{CoverageSample, Dataset, TputSample};
use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::operator::Operator;
use wheels_sim_core::time::{SimTime, Timezone};
use wheels_transport::servers::ServerKind;

fn one_row_dataset() -> Dataset {
    Dataset {
        tput: vec![TputSample {
            t: SimTime::EPOCH,
            test_id: 1,
            operator: Operator::Verizon,
            direction: Direction::Downlink,
            mbps: 50.0,
            tech: Technology::Lte,
            cell: 1,
            speed_mph: 60.0,
            zone: ZoneClass::Highway,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            rsrp_dbm: -100.0,
            mcs: 10,
            bler: 0.1,
            carriers: 1,
            handovers_in_bin: 0,
            driving: true,
        }],
        coverage: vec![CoverageSample {
            t: SimTime::EPOCH,
            operator: Operator::Att,
            tech: Some(Technology::LteA),
            direction: None,
            miles: 0.01,
            speed_mph: 60.0,
            tz: Timezone::Central,
            zone: ZoneClass::Highway,
        }],
        ..Dataset::default()
    }
}

#[test]
fn repro_load_refuses_unknown_enum_codes_without_panicking() {
    let mut cols = ColumnarDataset::from_rows(&one_row_dataset());
    cols.tput.operator[0] = 9;
    cols.coverage.tech[0] = 5;
    let path = std::env::temp_dir().join(format!("wheels-hostile-{}.wcd", std::process::id()));
    std::fs::write(&path, wcd::encode(&cols)).expect("write hostile image");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--load"])
        .arg(&path)
        .arg("table1")
        .output()
        .expect("spawn repro");
    std::fs::remove_file(&path).expect("remove hostile image");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot load"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no report for a refused file");
}
