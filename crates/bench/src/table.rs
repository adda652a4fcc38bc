//! Plain-text table/series output matching the paper's presentation, and
//! the JSON result files the bench mains leave under `results/`.

use hpcsim::stats::fmt_ns;

/// Prints a header box for an experiment.
pub fn banner(title: &str, detail: &str) {
    println!("==================================================================");
    println!("{title}");
    if !detail.is_empty() {
        println!("{detail}");
    }
    println!("==================================================================");
}

/// Writes `value` as one line of JSON to `path`, creating the parent
/// directory first. A bench whose result cannot be recorded has failed:
/// this panics rather than report success without an output file.
pub fn write_json<T: serde::Serialize + ?Sized>(path: &str, value: &T) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let body = serde_json::to_string(value).expect("serialize bench output");
    std::fs::write(path, body + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Prints one table with a left label column and value columns.
pub fn print_table(label_header: &str, columns: &[&str], rows: &[(String, Vec<f64>)], unit: &str) {
    print!("{label_header:>14} |");
    for c in columns {
        print!(" {c:>14} |");
    }
    println!();
    print!("{:->15}+", "");
    for _ in columns {
        print!("{:->16}+", "");
    }
    println!();
    for (label, vals) in rows {
        print!("{label:>14} |");
        for v in vals {
            print!(" {v:>14.3} |");
        }
        println!();
    }
    println!("(values in {unit})");
}

/// Prints a per-iteration series, one line each, with named columns.
pub fn print_series(x_header: &str, columns: &[&str], rows: &[(u64, Vec<Option<u64>>)]) {
    print!("{x_header:>10}");
    for c in columns {
        print!(" {c:>18}");
    }
    println!();
    for (x, vals) in rows {
        print!("{x:>10}");
        for v in vals {
            match v {
                Some(ns) => print!(" {:>18}", fmt_ns(*ns)),
                None => print!(" {:>18}", "-"),
            }
        }
        println!();
    }
}
