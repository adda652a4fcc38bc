//! Plain-text table/series output matching the paper's presentation.

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

/// Prints a per-iteration series of spans, one line per iteration
/// (numbered from 1), with named columns.
pub fn print_series(x_header: &str, columns: &[String], rows: &[Vec<u64>]) {
    print!("{x_header:>10}");
    for c in columns {
        print!(" {c:>18}");
    }
    println!();
    for (i, vals) in rows.iter().enumerate() {
        print!("{:>10}", i + 1);
        for &ns in vals {
            print!(" {:>18}", fmt_ns(ns));
        }
        println!();
    }
}
