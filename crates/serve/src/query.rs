//! Pure query evaluation: `(World, Request) -> response line`.
//!
//! This function is the entire byte-identity surface. The server calls
//! it against the live tailed view; the tests and the CI smoke job call
//! it against an offline `DatasetView::from_journal` of the same
//! journal prefix and compare the raw lines. There is deliberately no
//! server state in here — `status` and `shutdown` live in the server —
//! so equal view contents imply equal bytes.

use serde::Value;
use wheels_experiments::run_by_id;
use wheels_experiments::world::World;
use wheels_sim_core::stats::Cdf;

use crate::protocol::{obj, render, Filter, Request, Table};

fn cdf_for<'w>(world: &'w World, table: Table, filter: &Filter) -> Result<&'w Cdf, String> {
    match table {
        Table::Tput => Ok(world.view().tput_cdf(filter.op, filter.dir, filter.driving)),
        Table::Rtt => {
            if filter.dir.is_some() {
                return Err("rtt has no direction dimension (drop \"dir\")".to_string());
            }
            Ok(world.view().rtt_cdf(filter.op, filter.driving))
        }
    }
}

fn quantile_value(cdf: &Cdf, q: f64) -> Value {
    match cdf.quantile(q) {
        Some(x) => Value::F64(x),
        None => Value::Null,
    }
}

fn quantile_line(world: &World, table: Table, filter: &Filter, q: f64) -> Result<Value, String> {
    let cdf = cdf_for(world, table, filter)?;
    Ok(obj(vec![
        ("ok", Value::Bool(true)),
        ("cmd", Value::String("quantile".to_string())),
        ("table", Value::String(table.label().to_string())),
        ("n", Value::U64(cdf.len() as u64)),
        ("q", Value::F64(q)),
        ("value", quantile_value(cdf, q)),
    ]))
}

fn cdf_line(world: &World, table: Table, filter: &Filter, points: usize) -> Result<Value, String> {
    if !(2..=1001).contains(&points) {
        return Err(format!("points must be in 2..=1001, got {points}"));
    }
    let cdf = cdf_for(world, table, filter)?;
    let sweep: Vec<Value> = (0..points)
        .map(|i| quantile_value(cdf, i as f64 / (points - 1) as f64))
        .collect();
    Ok(obj(vec![
        ("ok", Value::Bool(true)),
        ("cmd", Value::String("cdf".to_string())),
        ("table", Value::String(table.label().to_string())),
        ("n", Value::U64(cdf.len() as u64)),
        ("points", Value::Array(sweep)),
    ]))
}

fn table1_line(world: &World) -> Value {
    let view = world.view();
    let cols = view.columns();
    let cells: Vec<Value> = view
        .unique_cells()
        .map(|(op, n)| Value::Array(vec![Value::String(op.label().to_string()), Value::U64(n)]))
        .collect();
    let runtime: Vec<Value> = view
        .runtime_min()
        .map(|(op, m)| Value::Array(vec![Value::String(op.label().to_string()), Value::F64(m)]))
        .collect();
    obj(vec![
        ("ok", Value::Bool(true)),
        ("cmd", Value::String("table1".to_string())),
        ("rx_bytes", Value::F64(cols.rx_bytes)),
        ("tx_bytes", Value::F64(cols.tx_bytes)),
        ("log_bytes", Value::F64(cols.log_bytes)),
        ("unique_cells", Value::Array(cells)),
        ("runtime_min", Value::Array(runtime)),
    ])
}

fn figure_line(world: &World, id: &str) -> Result<Value, String> {
    match run_by_id(world, id) {
        Some(text) => Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", Value::String("figure".to_string())),
            ("id", Value::String(id.to_string())),
            ("text", Value::String(text)),
        ])),
        None => Err(format!("unknown experiment id {id:?} (try repro --list)")),
    }
}

/// Answer one deterministic request against `world`, returning the
/// response line (no trailing newline). `status`/`shutdown` are server
/// concerns and answer with an error here.
pub fn respond(world: &World, req: &Request) -> String {
    let built = match req {
        Request::Quantile { table, filter, q } => quantile_line(world, *table, filter, *q),
        Request::Cdf {
            table,
            filter,
            points,
        } => cdf_line(world, *table, filter, *points),
        Request::Table1 => Ok(table1_line(world)),
        Request::Figure { id } => figure_line(world, id),
        Request::Status | Request::Shutdown => {
            Err("status/shutdown are served by the live server only".to_string())
        }
    };
    match built {
        Ok(v) => render(&v),
        Err(msg) => crate::protocol::error_line(&msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_experiments::world::World;

    #[test]
    fn quantile_cdf_and_table1_answer_on_the_quick_world() {
        let w = World::quick();
        let line = respond(
            w,
            &Request::Quantile {
                table: Table::Tput,
                filter: Filter::default(),
                q: 0.5,
            },
        );
        assert!(line.starts_with(r#"{"ok":true,"cmd":"quantile""#), "{line}");
        assert!(
            !line.contains("null"),
            "median of a populated table: {line}"
        );

        let line = respond(
            w,
            &Request::Cdf {
                table: Table::Rtt,
                filter: Filter {
                    op: None,
                    dir: None,
                    driving: Some(true),
                },
                points: 5,
            },
        );
        assert!(line.contains(r#""points":["#), "{line}");

        let line = respond(w, &Request::Table1);
        assert!(line.contains(r#""unique_cells":[["Verizon""#), "{line}");
    }

    #[test]
    fn figure_matches_the_registry_text() {
        let w = World::quick();
        let line = respond(
            w,
            &Request::Figure {
                id: "table1".to_string(),
            },
        );
        let expected = run_by_id(w, "table1").expect("table1 is registered");
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let Value::Object(fields) = &v else {
            panic!("not an object: {line}")
        };
        match serde::get_field(fields, "text") {
            Value::String(s) => assert_eq!(s, &expected),
            other => panic!("missing text: {other:?}"),
        }
    }

    #[test]
    fn domain_errors_are_error_lines() {
        let w = World::quick();
        for req in [
            Request::Quantile {
                table: Table::Rtt,
                filter: Filter {
                    op: None,
                    dir: Some(wheels_radio::tech::Direction::Uplink),
                    driving: None,
                },
                q: 0.5,
            },
            Request::Cdf {
                table: Table::Tput,
                filter: Filter::default(),
                points: 1,
            },
            Request::Figure {
                id: "nope".to_string(),
            },
            Request::Status,
        ] {
            let line = respond(w, &req);
            assert!(line.starts_with(r#"{"ok":false"#), "{req:?} -> {line}");
        }
    }
}
