type batch = {
  queries : int;
  total_results : int;
  total_io : int;
  total_reads : int;
  avg_io : float;
  total_seconds : float;
  avg_seconds : float;
}

let wall f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let io catalog f =
  Relation.Catalog.flush catalog;
  Relation.Catalog.reset_io_stats catalog;
  let r = f () in
  let stats = Relation.Catalog.io_stats catalog in
  (r, stats.Storage.Block_device.Stats.reads + stats.Storage.Block_device.Stats.writes)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.percentile: empty sample";
  if p < 0.0 || p > 1.0 then invalid_arg "Measure.percentile: p outside [0, 1]";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

let query_batch catalog count_query queries =
  Relation.Catalog.flush catalog;
  Relation.Catalog.reset_io_stats catalog;
  let t0 = Sys.time () in
  let total_results =
    Array.fold_left (fun acc q -> acc + count_query q) 0 queries
  in
  let elapsed = Sys.time () -. t0 in
  let stats = Relation.Catalog.io_stats catalog in
  let total_io =
    stats.Storage.Block_device.Stats.reads
    + stats.Storage.Block_device.Stats.writes
  in
  let n = max 1 (Array.length queries) in
  { queries = Array.length queries; total_results; total_io;
    total_reads = stats.Storage.Block_device.Stats.reads;
    avg_io = float_of_int total_io /. float_of_int n;
    total_seconds = elapsed; avg_seconds = elapsed /. float_of_int n }
