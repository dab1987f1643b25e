//! `index` — build and query the IVF serving index: `index build` clusters a
//! base set (any method the `cluster` subcommand supports) and persists the
//! inverted-file index; `index search` answers query batches from it;
//! `index compact` folds a mutation journal into the next clean checkpoint
//! generation; `index verify` audits both the checkpoint and its journal.

use ivf::store::{decode_op, wal_path, MutationOp};
use ivf::{evaluate, IvfIndex, IvfSearchParams, MutableStore};
use knn_graph::Neighbor;
use vecstore::io::read_fvecs;
use vecstore::wal::replay_wal;

use crate::args::Args;
use crate::commands::cluster::run_method;
use crate::error::CliError;

/// Usage text for `index build`.
pub const BUILD_USAGE: &str = "\
index build --base <base.fvecs> --k <clusters> --out <index.ivf>
            [--method gk|gk-trad|bkm|lloyd|kmeans++|minibatch|closure|bisecting|elkan|hamerly|akm|hkm]
            [--iterations <t>] [--kappa <k>] [--xi <size>] [--tau <rounds>] [--seed <u64>]
            [--threads <n>] [--graph <graph.bin>]  (same knobs as `cluster`)
            [--sq8]                                (attach the SQ8 quantized
                                  serving tier: per-list per-dim min/max u8
                                  codes persisted beside the f32 panel)
            [--json]                               (machine-readable report)
Clusters the base set, re-orders it into contiguous per-cluster panels with an
id remap, and writes the IVF index (centroids + list offsets + ids + panel) as
a chunked-section file.";

/// Usage text for `index search`.
pub const SEARCH_USAGE: &str = "\
index search --index <index.ivf> --queries <queries.fvecs>
             [--r <neighbours per query>] [--nprobe <lists per query>]
             [--threads <n>]     (batched search on the worker pool; results
                                  are bit-identical at any thread count)
             [--base <base.fvecs>] (compute the exact ground truth from the
                                  original base set — the same input the
                                  graph `search` subcommand uses; without it
                                  the index's own exhaustive nprobe=k scan
                                  serves as ground truth)
             [--no-recall]       (timing only, skip the ground truth)
             [--sq8]             (serve from the SQ8 quantized tier: u8 code
                                  scan into a top-(r·overfetch) pool, exact
                                  f32 re-rank of the survivors; requires an
                                  index built/quantized with --sq8)
             [--overfetch <x>]   (SQ8 candidate-pool factor, default 4)
             [--json]            (machine-readable report)
Runs every query through the index (batched multi-probe search) and reports
recall@R, latency, QPS and distance evaluations per query.  Ground truth is
always the exact f32 scan, so with --sq8 the reported recall measures the
quantized tier against the exact path.";

/// Usage text for `index verify`.
pub const VERIFY_USAGE: &str = "\
index verify --index <index.ivf>
             [--strict]          (treat a torn journal tail — an
                                  unacknowledged partial append — as
                                  corruption)
             [--spot-check <n>]  (exhaustively search n stored vectors —
                                  panel rows AND journal-replayed append
                                  rows — and require each live one to come
                                  back at distance 0)
             [--sq8]             (spot-check the quantized tier instead:
                                  de-quantized self-hits must land within
                                  the per-list quantization error bound;
                                  also reports quantization stats)
             [--json]            (machine-readable report)
Validates a saved IVF index: container checksums, framing, and cross-section
invariants are checked on load (a container in any version but the current
GKSC v2, the unchecksummed v1 included, is corrupt); --spot-check additionally replays stored
vectors through an exact scan.  When a mutation journal (<index>.wal) rides
beside the checkpoint it is audited too — record CRCs, length complements,
dense monotone sequence numbers, decodable mutation ops, and a start sequence
the checkpoint can anchor — and its valid records are replayed in memory so
the spot-check also covers vectors living in append regions.  Exits 0 when
the pair is sound, 4 when either file is corrupt, 3 on i/o failure.";

/// Usage text for `index compact`.
pub const COMPACT_USAGE: &str = "\
index compact --index <index.ivf>
              [--json]           (machine-readable report)
Folds the mutation journal (<index>.wal) into the next clean checkpoint
generation: replays the journal's valid prefix onto the checkpoint, rebuilds
contiguous per-cluster panels from the live set (appends folded in,
tombstones dropped), atomically publishes the new generation, and truncates
the journal.  Search over the compacted index is bit-identical to the dirty
index it replaces.  Exits 0 on success, 4 when either file is corrupt, 3 on
i/o failure.";

/// Runs `index build`.
pub fn run_build(args: &Args) -> Result<(), CliError> {
    let base_path = args.required("base")?;
    let k = args.usize_required("k")?;
    let out = args.required("out")?;
    let method = args.string_or("method", "lloyd");
    let iterations = args.usize_or("iterations", 30)?;
    let kappa = args.usize_or("kappa", 50)?;
    let xi = args.usize_or("xi", 50)?;
    let tau = args.usize_or("tau", 10)?;
    let seed = args.u64_or("seed", 0)?;
    let threads = args.threads_opt()?;
    let graph_path = args.optional("graph");
    let sq8 = args.flag("sq8");
    let json = args.flag("json");
    args.finish()?;

    let data = read_fvecs(&base_path)
        .map_err(|e| CliError::store(format!("cannot read {base_path}"), e))?;
    if k == 0 || k > data.len() {
        return Err(CliError::Usage(format!(
            "--k must be between 1 and the number of samples ({})",
            data.len()
        )));
    }
    let (clustering, _) = run_method(
        &method,
        &data,
        k,
        iterations,
        kappa,
        xi,
        tau,
        seed,
        threads,
        graph_path.as_deref(),
    )?;
    let mut index = IvfIndex::build(&data, &clustering.centroids, &clustering.labels)
        .map_err(|e| CliError::store("cannot build the IVF index", e))?;
    if sq8 {
        index.quantize();
    }
    index
        .save(&out)
        .map_err(|e| CliError::store(format!("cannot write {out}"), e))?;

    let sizes: Vec<usize> = (0..index.nlist()).map(|c| index.list_len(c)).collect();
    let max_list = sizes.iter().copied().max().unwrap_or(0);
    let empty_lists = sizes.iter().filter(|&&s| s == 0).count();
    let panel_bytes = index.len() * index.dim() * 4;
    if json {
        let report = serde_json::json!({
            "method": method,
            "n": index.len(),
            "dim": index.dim(),
            "nlist": index.nlist(),
            "max_list_len": max_list,
            "empty_lists": empty_lists,
            "sq8": match index.sq8() {
                Some(tier) => serde_json::json!({
                    "code_bytes": tier.code_bytes(),
                    "panel_bytes": panel_bytes,
                }),
                None => serde_json::Value::Null,
            },
            "out": out,
        });
        println!("{}", serde_json::to_string_pretty(&report).expect("json"));
    } else {
        println!(
            "ivf index: n = {}, d = {}, {} lists (avg {:.1}, max {max_list}, {empty_lists} empty), method {method}",
            index.len(),
            index.dim(),
            index.nlist(),
            index.len() as f64 / index.nlist() as f64,
        );
        if let Some(tier) = index.sq8() {
            println!(
                "sq8 tier: {} code bytes beside {panel_bytes} f32 panel bytes \
                 ({:.2}x panel compression)",
                tier.code_bytes(),
                panel_bytes as f64 / tier.code_bytes().max(1) as f64,
            );
        }
        println!("written to {out}");
    }
    Ok(())
}

/// Runs `index search`.
pub fn run_search(args: &Args) -> Result<(), CliError> {
    let index_path = args.required("index")?;
    let query_path = args.required("queries")?;
    let r = args.usize_or("r", 10)?;
    let nprobe = args.usize_or("nprobe", 8)?;
    let threads = args.threads_opt()?;
    let base_path = args.optional("base");
    let skip_recall = args.flag("no-recall");
    let sq8 = args.flag("sq8");
    let overfetch = args.usize_or("overfetch", 4)?;
    let json = args.flag("json");
    args.finish()?;

    let index = IvfIndex::load(&index_path)
        .map_err(|e| CliError::store(format!("cannot read {index_path}"), e))?;
    if sq8 && !index.is_quantized() {
        return Err(CliError::Usage(format!(
            "--sq8 requires a quantized index, but {index_path} carries no SQ8 tier \
             (rebuild with `index build --sq8`)"
        )));
    }
    let queries = read_fvecs(&query_path)
        .map_err(|e| CliError::store(format!("cannot read {query_path}"), e))?;
    if queries.dim() != index.dim() {
        return Err(CliError::Usage(format!(
            "query dimensionality {} does not match the index's {}",
            queries.dim(),
            index.dim()
        )));
    }
    let mut params = IvfSearchParams::default()
        .nprobe(nprobe)
        .sq8(sq8)
        .overfetch(overfetch);
    if let Some(t) = threads {
        params = params.threads(t);
    }
    // Report the lists a query actually probes (the knob clamped to
    // 1..=nlist), so text and JSON output agree on the work performed.
    let nprobe = index.effective_nprobe(nprobe);

    if skip_recall {
        let start = std::time::Instant::now();
        let (_, stats) = index.batch_search_with_stats(&queries, r, params);
        let elapsed = start.elapsed().as_secs_f64();
        let nq = queries.len();
        let avg_query_ms = elapsed * 1000.0 / nq as f64;
        let qps = nq as f64 / elapsed.max(1e-12);
        let avg_evals = stats.distance_evals as f64 / nq as f64;
        let avg_bytes = stats.panel_bytes as f64 / nq as f64;
        if json {
            let out = serde_json::json!({
                "queries": nq,
                "r": r,
                "nprobe": nprobe,
                "sq8": sq8,
                "overfetch": match sq8 {
                    true => serde_json::json!(overfetch.max(1)),
                    false => serde_json::Value::Null,
                },
                "avg_query_ms": avg_query_ms,
                "qps": qps,
                "avg_distance_evals": avg_evals,
                "avg_panel_bytes": avg_bytes,
            });
            println!("{}", serde_json::to_string_pretty(&out).expect("json"));
        } else {
            println!(
                "{nq} queries, r = {r}, nprobe = {nprobe}{}: {avg_query_ms:.3} ms/query, \
                 {qps:.0} qps, {avg_evals:.1} distance evals/query, {avg_bytes:.0} panel \
                 bytes/query",
                if sq8 {
                    format!(", sq8 overfetch = {}", overfetch.max(1))
                } else {
                    String::new()
                }
            );
        }
        return Ok(());
    }

    let truth: Vec<Vec<Neighbor>> = match base_path {
        Some(path) => {
            let base =
                read_fvecs(&path).map_err(|e| CliError::store(format!("cannot read {path}"), e))?;
            if base.dim() != index.dim() {
                return Err(CliError::Usage(format!(
                    "base dimensionality {} does not match the index's {}",
                    base.dim(),
                    index.dim()
                )));
            }
            knn_graph::brute::exact_ground_truth(&base, &queries, r)
        }
        // Probing every list is an exhaustive scan, so the index can serve
        // as its own exact ground truth.  The thread knob (or its
        // GKM_THREADS default) applies here too — results are bit-identical
        // at any thread count, so only wall-clock changes.
        None => {
            let mut gt_params = IvfSearchParams::default().nprobe(index.nlist());
            if let Some(t) = threads {
                gt_params = gt_params.threads(t);
            }
            index.batch_search(&queries, r, gt_params)
        }
    };
    let report = evaluate(&index, &queries, &truth, r, params);
    if json {
        let out = serde_json::json!({
            "queries": queries.len(),
            "r": r,
            "nprobe": report.nprobe,
            "sq8": sq8,
            "overfetch": match sq8 {
                true => serde_json::json!(overfetch.max(1)),
                false => serde_json::Value::Null,
            },
            "recall": report.stats.recall,
            "avg_query_ms": report.stats.avg_query_ms,
            "qps": report.stats.qps,
            "avg_distance_evals": report.stats.avg_distance_evals,
        });
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
    } else {
        println!(
            "{} queries, r = {r}, nprobe = {nprobe}{}: recall@{r} = {:.3}, {:.3} ms/query, {:.0} qps, {:.1} distance evals/query",
            queries.len(),
            if sq8 {
                format!(", sq8 overfetch = {}", overfetch.max(1))
            } else {
                String::new()
            },
            report.stats.recall,
            report.stats.avg_query_ms,
            report.stats.qps,
            report.stats.avg_distance_evals
        );
    }
    Ok(())
}

/// Runs `index verify`.
///
/// Loading already validates every container checksum and cross-section
/// invariant (the typed [`vecstore::StoreError`] taxonomy), so a successful
/// load *is* the structural verification; `--spot-check n` additionally
/// replays `n` evenly-spaced stored vectors through an exhaustive
/// `nprobe = nlist` scan and requires each to come back at distance zero —
/// a semantic end-to-end check that the panel, ids and centroids agree.
pub fn run_verify(args: &Args) -> Result<(), CliError> {
    let index_path = args.required("index")?;
    let strict = args.flag("strict");
    let spot_check = args.usize_or("spot-check", 0)?;
    let sq8 = args.flag("sq8");
    let json = args.flag("json");
    args.finish()?;

    let mut index = IvfIndex::load(&index_path)
        .map_err(|e| CliError::store(format!("cannot verify {index_path}"), e))?;
    if sq8 && !index.is_quantized() {
        return Err(CliError::Usage(format!(
            "--sq8 requires a quantized index, but {index_path} carries no SQ8 tier \
             (rebuild with `index build --sq8`)"
        )));
    }

    // Audit the mutation journal riding beside the checkpoint: replay
    // validates record CRCs, length complements and dense monotone
    // sequences; decoding every body validates the op taxonomy; the header's
    // start sequence must not outrun the checkpoint's applied cursor (that
    // would mean acknowledged records are missing).  The valid records are
    // then applied to the in-memory index (the file is untouched) so the
    // spot-check below covers vectors living in append regions, not just
    // the contiguous checkpoint panel.
    let wal = wal_path(&index_path);
    let mut wal_audit: Option<(usize, bool)> = None;
    if wal.exists() {
        let bytes = std::fs::read(&wal)
            .map_err(|e| CliError::io(format!("cannot read {}", wal.display()), e))?;
        let replay = replay_wal(&bytes)
            .map_err(|e| CliError::store(format!("cannot verify {}", wal.display()), e))?;
        if replay.valid_len > 0 && replay.start_seq > index.applied_seq() {
            return Err(CliError::Corrupt(format!(
                "journal {} starts at sequence {} but the checkpoint only covers up to {} — \
                 acknowledged records are missing",
                wal.display(),
                replay.start_seq,
                index.applied_seq()
            )));
        }
        for record in &replay.records {
            let op = decode_op(&record.body, index.dim())
                .map_err(|e| CliError::store(format!("cannot verify {}", wal.display()), e))?;
            if record.seq < index.applied_seq() {
                continue; // already folded into the checkpoint
            }
            match op {
                MutationOp::Insert { id, vector } => {
                    index.apply_insert(id, &vector).map_err(|e| {
                        CliError::store(format!("cannot replay {}", wal.display()), e)
                    })?;
                }
                MutationOp::Delete { id } => {
                    index.delete(id);
                }
            }
        }
        if strict && replay.torn {
            return Err(CliError::Corrupt(format!(
                "journal {} has a torn tail (an unacknowledged partial append); \
                 strict verification rejects it — recover by opening the store, \
                 or compact to truncate the journal",
                wal.display()
            )));
        }
        wal_audit = Some((replay.records.len(), replay.torn));
    }

    // Spot-check evenly over every stored row — contiguous panel rows and
    // journal-replayed append rows alike — skipping tombstoned ids (a
    // deleted vector is *supposed* to be unfindable).  In f32 mode a stored
    // vector must return itself at exactly distance 0 under an exhaustive
    // scan; in --sq8 mode the row is de-quantized from its stored codes
    // first and the self-hit must land within the list's quantization error
    // bound `Σ (scale/2)²` (appended rows may additionally have been clamped
    // to the list's frozen range, which is checked component-wise).
    let total_rows = index.len() + index.pending_appends();
    let spot = spot_check.min(total_rows);
    let mut checked = 0usize;
    if let Some(step) = total_rows.checked_div(spot).map(|s| s.max(1)) {
        let params = IvfSearchParams::default().nprobe(index.nlist());
        let d = index.dim();
        let mut global = 0usize;
        let mut panel_pos = 0usize; // lists are contiguous in list order
        let mut decoded = vec![0.0f32; d];
        'lists: for c in 0..index.nlist() {
            let (rows, ids) = index.list(c);
            let (arows, aids) = index.append_list(c);
            let panel_len = ids.len();
            for (j, &id) in ids.iter().chain(aids.iter()).enumerate() {
                let in_panel = j < panel_len;
                let row = if in_panel {
                    &rows[j * d..(j + 1) * d]
                } else {
                    let aj = j - panel_len;
                    &arows[aj * d..(aj + 1) * d]
                };
                if global % step == 0 && index.is_live(id) {
                    match index.sq8().filter(|_| sq8) {
                        None => {
                            let hit = index.search(row, 1, params).first().copied();
                            if !hit.is_some_and(|h| h.dist == 0.0) {
                                return Err(CliError::Corrupt(format!(
                                    "spot-check failed: stored vector id {id} (list {c}, \
                                     {} region) did not return at distance 0 under an \
                                     exhaustive scan",
                                    if in_panel { "panel" } else { "append" }
                                )));
                            }
                        }
                        Some(tier) => {
                            let codes = if in_panel {
                                tier.panel_row_codes(panel_pos + j)
                            } else {
                                tier.append_row_codes(c, j - panel_len)
                            };
                            let mins = tier.list_mins(c);
                            let scales = tier.list_scales(c);
                            ivf::sq8::decode_row_into(codes, mins, scales, &mut decoded);
                            // Component-wise quantizer contract: error within
                            // scale/2 (plus f32 rounding slack), or the code
                            // saturated because the value sat outside the
                            // list's frozen range (possible only for rows
                            // appended after quantization).
                            for i in 0..d {
                                let err = (f64::from(row[i]) - f64::from(decoded[i])).abs();
                                let tol = f64::from(scales[i]) * 0.5 * (1.0 + 1e-4) + 1e-30;
                                let clamped = codes[i] == 0 || codes[i] == 255;
                                if err > tol && !clamped {
                                    return Err(CliError::Corrupt(format!(
                                        "sq8 spot-check failed: stored vector id {id} \
                                         (list {c}) de-quantizes {err:.3e} away from its \
                                         f32 row at component {i} (bound {tol:.3e})"
                                    )));
                                }
                            }
                            // End-to-end: the de-quantized row searched
                            // through the exact path must land within the
                            // list's self-hit bound (skip rows with clamped
                            // components — their reconstruction error is
                            // unbounded by design).
                            let saturated = codes.iter().any(|&b| b == 0 || b == 255) && !in_panel;
                            if !saturated {
                                let bound = tier.self_hit_bound(c) * (1.0 + 1e-4) + 1e-30;
                                let hit = index.search(&decoded, 1, params).first().copied();
                                if !hit.is_some_and(|h| f64::from(h.dist) <= bound) {
                                    return Err(CliError::Corrupt(format!(
                                        "sq8 spot-check failed: the de-quantized self-hit \
                                         of vector id {id} (list {c}) landed outside the \
                                         quantization error bound {bound:.3e}"
                                    )));
                                }
                            }
                        }
                    }
                    checked += 1;
                    if checked == spot {
                        break 'lists;
                    }
                }
                global += 1;
            }
            panel_pos += panel_len;
        }
    }

    // Quantization stats: footprint of the code panels against the f32 rows
    // they shadow, plus the worst per-list error bound — the number a
    // capacity plan actually needs.
    let sq8_stats = index.sq8().map(|tier| {
        let f32_bytes = total_rows * index.dim() * 4;
        let max_scale = (0..tier.nlist())
            .flat_map(|c| tier.list_scales(c))
            .copied()
            .fold(0.0f32, f32::max);
        let max_bound = (0..tier.nlist())
            .map(|c| tier.self_hit_bound(c))
            .fold(0.0f64, f64::max);
        (tier.code_bytes(), f32_bytes, max_scale, max_bound)
    });

    if json {
        let out = serde_json::json!({
            "index": index_path,
            "status": "ok",
            "strict": strict,
            "n": index.len(),
            "dim": index.dim(),
            "nlist": index.nlist(),
            "spot_checked": checked,
            "sq8": match sq8_stats {
                Some((code_bytes, f32_bytes, max_scale, max_bound)) => serde_json::json!({
                    "code_bytes": code_bytes,
                    "f32_panel_bytes": f32_bytes,
                    "max_scale": max_scale,
                    "max_self_hit_bound": max_bound,
                }),
                None => serde_json::Value::Null,
            },
            "wal": match wal_audit {
                Some((records, torn)) => serde_json::json!({
                    "path": wal.display().to_string(),
                    "records": records,
                    "torn_tail": torn,
                }),
                None => serde_json::Value::Null,
            },
            "checksum_impl": vecstore::checksum::active_impl(),
        });
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
    } else {
        println!(
            "{index_path}: ok{} — n = {}, d = {}, {} lists ({} via {}){}{}",
            if strict { " (strict)" } else { "" },
            index.len(),
            index.dim(),
            index.nlist(),
            if checked > 0 {
                format!("{checked} vectors spot-checked")
            } else {
                "no spot-check".to_string()
            },
            vecstore::checksum::active_impl(),
            match sq8_stats {
                Some((code_bytes, f32_bytes, max_scale, max_bound)) => format!(
                    "; sq8 tier — {code_bytes} code bytes beside {f32_bytes} f32 bytes, \
                     max scale {max_scale:.3e}, max self-hit bound {max_bound:.3e}"
                ),
                None => String::new(),
            },
            match wal_audit {
                Some((records, torn)) => format!(
                    "; journal ok — {records} records{}",
                    if torn {
                        ", torn tail pending truncation"
                    } else {
                        ""
                    }
                ),
                None => String::new(),
            },
        );
    }
    Ok(())
}

/// Runs `index compact`.
pub fn run_compact(args: &Args) -> Result<(), CliError> {
    let index_path = args.required("index")?;
    let json = args.flag("json");
    args.finish()?;

    let (mut store, report) = MutableStore::open(&index_path)
        .map_err(|e| CliError::store(format!("cannot open {index_path}"), e))?;
    let appends = store.index().pending_appends();
    let tombstones = store.index().tombstoned();
    store
        .compact()
        .map_err(|e| CliError::store(format!("cannot compact {index_path}"), e))?;
    let index = store.index();
    if json {
        let out = serde_json::json!({
            "index": index_path,
            "replayed": report.replayed,
            "skipped": report.skipped,
            "torn_tail_dropped": report.torn_tail_dropped,
            "appends_folded": appends,
            "tombstones_dropped": tombstones,
            "n": index.live_len(),
            "dim": index.dim(),
            "nlist": index.nlist(),
            "applied_seq": index.applied_seq(),
        });
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
    } else {
        println!(
            "{index_path}: compacted — replayed {} journal records{}{}, folded {appends} \
             appends, dropped {tombstones} tombstones; new generation has n = {}, {} lists, \
             journal truncated at sequence {}",
            report.replayed,
            if report.skipped > 0 {
                format!(" ({} already checkpointed)", report.skipped)
            } else {
                String::new()
            },
            if report.torn_tail_dropped {
                " (torn tail dropped)"
            } else {
                ""
            },
            index.live_len(),
            index.nlist(),
            index.applied_seq(),
        );
    }
    Ok(())
}
