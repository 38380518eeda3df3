//! Experiment E9: Communication & Metadata layer throughput — xRQ/xMD/xLM
//! parse/emit and the generic XML↔JSON↔XML conversion, over document sizes.

use criterion::{BenchmarkId, Criterion, Throughput};
use quarry_bench::quarry_with;
use quarry_etl::Flow;
use quarry_formats::{xlm, xmd};
use quarry_md::MdSchema;
use quarry_repository::convert;
use std::hint::black_box;

fn designs(n: usize) -> (MdSchema, Flow) {
    let q = quarry_with(n);
    (q.unified().0.clone(), q.unified().1.clone())
}

fn documents(n: usize) -> (String, String) {
    let (md, etl) = designs(n);
    (xmd::to_string(&md), xlm::to_string(&etl))
}

/// MB/s of the fastest of 20 renderings.
fn emit_rate(mut render: impl FnMut() -> String) -> f64 {
    (0..20)
        .map(|_| {
            let t = std::time::Instant::now();
            let bytes = black_box(render()).len();
            bytes as f64 / t.elapsed().as_secs_f64() / 1e6
        })
        .fold(0.0, f64::max)
}

fn print_series() {
    println!("\n# E9: format layer throughput");
    println!(
        "{:>4} {:>10} {:>10} {:>12} {:>12} {:>14} {:>14} {:>14}",
        "N", "xmd-bytes", "xlm-bytes", "xmd-parse", "xlm-parse", "xml-json-xml", "xmd-emit MB/s", "xlm-emit MB/s"
    );
    for n in [1usize, 8, 64] {
        let (md, etl) = designs(n);
        let (xmd_doc, xlm_doc) = (xmd::to_string(&md), xlm::to_string(&etl));
        let t0 = std::time::Instant::now();
        let parsed_md = xmd::parse(&xmd_doc).expect("roundtrip");
        let t_md = t0.elapsed();
        let t1 = std::time::Instant::now();
        let parsed_etl = xlm::parse(&xlm_doc).expect("roundtrip");
        let t_etl = t1.elapsed();
        let t2 = std::time::Instant::now();
        let json = convert::xml_string_to_json(&xlm_doc).expect("converts");
        let back = convert::json_to_xml_string(&json).expect("converts back");
        let t_conv = t2.elapsed();
        println!(
            "{:>4} {:>10} {:>10} {:>12?} {:>12?} {:>14?} {:>14.0} {:>14.0}",
            n,
            xmd_doc.len(),
            xlm_doc.len(),
            t_md,
            t_etl,
            t_conv,
            emit_rate(|| xmd::to_string(&md)),
            emit_rate(|| xlm::to_string(&etl)),
        );
        black_box((parsed_md, parsed_etl, back));
    }
}

fn bench(c: &mut Criterion) {
    for n in [1usize, 16] {
        let (xmd_doc, xlm_doc) = documents(n);

        let mut group = c.benchmark_group(format!("formats_n{n}"));
        group.throughput(Throughput::Bytes(xmd_doc.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter("xmd_parse"), &xmd_doc, |b, doc| {
            b.iter(|| black_box(xmd::parse(doc).expect("valid")));
        });
        group.throughput(Throughput::Bytes(xlm_doc.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter("xlm_parse"), &xlm_doc, |b, doc| {
            b.iter(|| black_box(xlm::parse(doc).expect("valid")));
        });
        group.bench_with_input(BenchmarkId::from_parameter("xml_json_roundtrip"), &xlm_doc, |b, doc| {
            b.iter(|| {
                let json = convert::xml_string_to_json(doc).expect("converts");
                black_box(convert::json_to_xml_string(&json).expect("converts back"))
            });
        });
        group.finish();
    }

    // Emission side: the documents a design step renders, at the lifecycle
    // benchmark's two design sizes.
    for n in [8usize, 64] {
        let (md, etl) = designs(n);
        let mut group = c.benchmark_group(format!("formats_emit_n{n}"));
        group.throughput(Throughput::Bytes(xmd::to_string(&md).len() as u64));
        group.bench_function("xmd_emit", |b| b.iter(|| black_box(xmd::to_string(&md))));
        group.throughput(Throughput::Bytes(xlm::to_string(&etl).len() as u64));
        group.bench_function("xlm_emit", |b| b.iter(|| black_box(xlm::to_string(&etl))));
        group.finish();
    }
}

fn main() {
    // The printed comparison series are measurement runs; `--test` (the CI
    // bench smoke) only proves the harness still executes.
    if !criterion::is_test_mode() {
        print_series();
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench(&mut criterion);
    criterion.final_summary();
}
