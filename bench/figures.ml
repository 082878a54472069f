(* The tables and figures of Sec. 6. Each experiment returns its
   tables; [Main] prints them and, with [-o DIR], saves them as CSV.

   Absolute numbers come from the simulated device (2 KB blocks,
   200-block cache, as in the paper); shapes, not magnitudes, are the
   reproduction target. *)

module Ivl = Interval.Ivl
module Dist = Workload.Distribution
module Methods = Harness.Methods
module Measure = Harness.Measure
module Tbl = Harness.Tbl

let scaled ~tiny n = if tiny then max 1_000 (n / 10) else n

(* ------------------------------------------------------------------ *)

let mk_methods data ~queries =
  let level = Methods.calibrated_tile_level data ~queries in
  [ Methods.ri_tree (); Methods.tile ~level (); Methods.ist () ]

let batch_of (m : Methods.t) queries =
  Measure.query_batch m.catalog (Methods.count m) queries

(* ---- Table 1 ---- *)

let table1 ~tiny =
  let n = scaled ~tiny 10_000 in
  let t =
    Tbl.create ~title:"Table 1: sample interval databases (measured)"
      ~columns:
        [ "name"; "starting points"; "durations"; "n"; "mean len";
          "max len" ]
  in
  List.iter
    (fun kind ->
      let data = Dist.generate kind ~n ~d:2000 in
      let max_len =
        Array.fold_left (fun acc i -> max acc (Ivl.length i)) 0 data
      in
      let starts, durs =
        match kind with
        | Dist.D1 -> ("uniform", "uniform [0,2d]")
        | Dist.D2 -> ("uniform", "exponential mean d")
        | Dist.D3 -> ("poisson", "uniform [0,2d]")
        | Dist.D4 -> ("poisson", "exponential mean d")
      in
      Tbl.add_row t
        [ Dist.kind_to_string kind; starts; durs; string_of_int n;
          Printf.sprintf "%.0f" (Dist.mean_length data);
          string_of_int max_len ])
    Dist.all_kinds;
  [ t ]

(* ---- Figs. 12 + 14: storage and scale-up on D4(n,2k) ---- *)

let fig12_14 ~tiny =
  let sizes =
    if tiny then [ 1_000; 10_000; 50_000 ]
    else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let selectivity = 0.006 in
  let storage =
    Tbl.create ~title:"Fig. 12: number of index entries, D4(*,2k)"
      ~columns:[ "db size"; "T-index"; "IST"; "RI-tree"; "T redundancy" ]
  in
  let io_t =
    Tbl.create
      ~title:"Fig. 14a: physical I/O per range query, D4(*,2k), sel 0.6%"
      ~columns:[ "db size"; "T-index"; "IST"; "RI-tree" ]
  in
  let rt =
    Tbl.create
      ~title:"Fig. 14b: response time per range query [ms], D4(*,2k), sel 0.6%"
      ~columns:[ "db size"; "T-index"; "IST"; "RI-tree" ]
  in
  List.iter
    (fun n ->
      let data = Dist.generate Dist.D4 ~n ~d:2000 in
      let queries = Workload.Query_gen.queries ~data ~count:20 selectivity in
      let methods = mk_methods data ~queries in
      List.iter (fun m -> Methods.load m data) methods;
      let find label =
        List.find
          (fun (m : Methods.t) ->
            String.length m.label >= String.length label
            && String.sub m.label 0 (String.length label) = label)
          methods
      in
      let ri = find "RI-tree" and tile = find "T-index" and ist = find "IST" in
      Tbl.add_row storage
        [ string_of_int n;
          string_of_int (tile.index_entries ());
          string_of_int (ist.index_entries ());
          string_of_int (ri.index_entries ());
          Printf.sprintf "%.1f"
            (float_of_int (tile.index_entries ()) /. float_of_int n) ];
      let bt = batch_of tile queries
      and bi = batch_of ist queries
      and br = batch_of ri queries in
      Tbl.add_row io_t
        [ string_of_int n; Tbl.fmt_f bt.Measure.avg_io;
          Tbl.fmt_f bi.Measure.avg_io; Tbl.fmt_f br.Measure.avg_io ];
      Tbl.add_row rt
        [ string_of_int n;
          Tbl.fmt_f (1000. *. bt.Measure.avg_seconds);
          Tbl.fmt_f (1000. *. bi.Measure.avg_seconds);
          Tbl.fmt_f (1000. *. br.Measure.avg_seconds) ])
    sizes;
  [ storage; io_t; rt ]

(* ---- Fig. 13: selectivity sweep on D1(100k,2k) ---- *)

let fig13 ~tiny =
  let n = scaled ~tiny 100_000 in
  let data = Dist.generate Dist.D1 ~n ~d:2000 in
  let selectivities = [ 0.005; 0.010; 0.015; 0.020; 0.025; 0.030 ] in
  let cal_queries = Workload.Query_gen.queries ~data ~count:50 0.01 in
  let methods = mk_methods data ~queries:cal_queries in
  List.iter (fun m -> Methods.load m data) methods;
  let io_t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Fig. 13a: physical I/O per range query, D1(%d,2k), 100 queries"
           n)
      ~columns:[ "selectivity %"; "T-index"; "IST"; "RI-tree" ]
  in
  let rt =
    Tbl.create
      ~title:"Fig. 13b: response time per range query [ms]"
      ~columns:[ "selectivity %"; "T-index"; "IST"; "RI-tree" ]
  in
  List.iter
    (fun sel ->
      let queries = Workload.Query_gen.queries ~data ~count:100 sel in
      let cells =
        List.map (fun m -> batch_of m queries) methods
      in
      match (methods, cells) with
      | [ _ri; _tile; _ist ], [ bri; btile; bist ] ->
          Tbl.add_row io_t
            [ Printf.sprintf "%.1f" (100. *. sel);
              Tbl.fmt_f btile.Measure.avg_io; Tbl.fmt_f bist.Measure.avg_io;
              Tbl.fmt_f bri.Measure.avg_io ];
          Tbl.add_row rt
            [ Printf.sprintf "%.1f" (100. *. sel);
              Tbl.fmt_f (1000. *. btile.Measure.avg_seconds);
              Tbl.fmt_f (1000. *. bist.Measure.avg_seconds);
              Tbl.fmt_f (1000. *. bri.Measure.avg_seconds) ]
      | _ -> assert false)
    selectivities;
  [ io_t; rt ]

(* ---- Fig. 15: dataspace granularity (minstep) on restricted D3 ---- *)

let fig15 ~tiny =
  let n = scaled ~tiny 100_000 in
  let restrictions =
    [ (0, 4000); (500, 3500); (1000, 3000); (1500, 2500) ]
  in
  let selectivities = [ 0.000; 0.002; 0.005; 0.012 ] in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Fig. 15: RI-tree response time [ms] vs minimum interval \
            length, restricted D3(%d,2k)"
           n)
      ~columns:
        [ "min length"; "minLevel"; "height"; "0.0%"; "0.2%"; "0.5%";
          "1.2%" ]
  in
  let io_rows =
    Tbl.create
      ~title:"Fig. 15 (I/O view): physical I/O per query"
      ~columns:
        [ "min length"; "minLevel"; "height"; "0.0%"; "0.2%"; "0.5%";
          "1.2%" ]
  in
  List.iter
    (fun (min_len, max_len) ->
      let data = Dist.generate_restricted Dist.D3 ~n ~min_len ~max_len in
      let db = Relation.Catalog.create () in
      let tree = Ritree.Ri_tree.create db in
      Array.iteri
        (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl))
        data;
      let p = Ritree.Ri_tree.params tree in
      let cells =
        List.map
          (fun sel ->
            let queries = Workload.Query_gen.queries ~data ~count:100 sel in
            Measure.query_batch db
              (fun q -> List.length (Exec.Planner.intersecting_ids tree q))
              queries)
          selectivities
      in
      Tbl.add_row t
        ([ string_of_int min_len;
           string_of_int p.Ritree.Ri_tree.min_level;
           string_of_int (Ritree.Ri_tree.height tree) ]
        @ List.map
            (fun b -> Tbl.fmt_f (1000. *. b.Measure.avg_seconds))
            cells);
      Tbl.add_row io_rows
        ([ string_of_int min_len;
           string_of_int p.Ritree.Ri_tree.min_level;
           string_of_int (Ritree.Ri_tree.height tree) ]
        @ List.map (fun b -> Tbl.fmt_f b.Measure.avg_io) cells))
    restrictions;
  [ t; io_rows ]

(* ---- Fig. 16: mean interval length sweep on D4(100k,mean) ---- *)

let fig16 ~tiny =
  let n = scaled ~tiny 100_000 in
  let means = [ 0; 250; 500; 1000; 1500; 2000 ] in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Fig. 16: response time [ms] per range query, D4(%d,*), sel 1%%"
           n)
      ~columns:
        [ "mean length"; "T redundancy"; "T-index"; "IST"; "RI-tree" ]
  in
  let io_t =
    Tbl.create ~title:"Fig. 16 (I/O view): physical I/O per query"
      ~columns:
        [ "mean length"; "T redundancy"; "T-index"; "IST"; "RI-tree" ]
  in
  List.iter
    (fun d ->
      let data = Dist.generate Dist.D4 ~n ~d in
      let queries = Workload.Query_gen.queries ~data ~count:20 0.01 in
      let methods = mk_methods data ~queries in
      List.iter (fun m -> Methods.load m data) methods;
      match methods with
      | [ ri; tile; ist ] ->
          let red =
            float_of_int (tile.index_entries ()) /. float_of_int n
          in
          let bt = batch_of tile queries
          and bi = batch_of ist queries
          and br = batch_of ri queries in
          Tbl.add_row t
            [ string_of_int d; Printf.sprintf "%.1f" red;
              Tbl.fmt_f (1000. *. bt.Measure.avg_seconds);
              Tbl.fmt_f (1000. *. bi.Measure.avg_seconds);
              Tbl.fmt_f (1000. *. br.Measure.avg_seconds) ];
          Tbl.add_row io_t
            [ string_of_int d; Printf.sprintf "%.1f" red;
              Tbl.fmt_f bt.Measure.avg_io; Tbl.fmt_f bi.Measure.avg_io;
              Tbl.fmt_f br.Measure.avg_io ]
      | _ -> assert false)
    means;
  [ t; io_t ]

(* ---- Fig. 17: sweeping point query on D2(200k,2k) ---- *)

let fig17 ~tiny =
  let n = scaled ~tiny 200_000 in
  let data = Dist.generate Dist.D2 ~n ~d:2000 in
  let sweep = Workload.Query_gen.sweep_points ~count:11 in
  let cal_queries = Workload.Query_gen.point_queries ~count:50 () in
  let methods = mk_methods data ~queries:cal_queries in
  List.iter (fun m -> Methods.load m data) methods;
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Fig. 17: sweeping point query, D2(%d,2k): response time [ms] \
            (IST degenerates away from the domain's upper bound)"
           n)
      ~columns:
        [ "distance to upper bound"; "T-index"; "IST"; "RI-tree" ]
  in
  let io_t =
    Tbl.create ~title:"Fig. 17 (I/O view): physical I/O per point query"
      ~columns:[ "distance to upper bound"; "T-index"; "IST"; "RI-tree" ]
  in
  Array.iter
    (fun q ->
      let dist = Dist.domain_max - Ivl.lower q in
      match methods with
      | [ ri; tile; ist ] ->
          let one (m : Methods.t) =
            Measure.query_batch m.catalog (Methods.count m) [| q |]
          in
          let bt = one tile and bi = one ist and br = one ri in
          Tbl.add_row t
            [ string_of_int dist;
              Tbl.fmt_f (1000. *. bt.Measure.avg_seconds);
              Tbl.fmt_f (1000. *. bi.Measure.avg_seconds);
              Tbl.fmt_f (1000. *. br.Measure.avg_seconds) ];
          Tbl.add_row io_t
            [ string_of_int dist; Tbl.fmt_f bt.Measure.avg_io;
              Tbl.fmt_f bi.Measure.avg_io; Tbl.fmt_f br.Measure.avg_io ]
      | _ -> assert false)
    sweep;
  [ t; io_t ]

(* ---- Window-List remark (Sec. 6.1) ---- *)

let wlist ~tiny =
  let n = scaled ~tiny 100_000 in
  let data = Dist.generate Dist.D1 ~n ~d:2000 in
  let queries = Workload.Query_gen.point_queries ~count:100 () in
  let ri = Methods.ri_tree () in
  Methods.load ri data;
  let wl = Methods.window_list data in
  let br = Measure.query_batch ri.catalog (Methods.count ri) queries in
  let bw = Measure.query_batch wl.catalog (Methods.count wl) queries in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Sec. 6.1: Window-List vs RI-tree, D1(%d,2k), 100 stabbing \
            queries (paper: Window-List needs about twice the I/O)"
           n)
      ~columns:[ "method"; "index entries"; "avg I/O"; "avg time (ms)" ]
  in
  Tbl.add_row t
    [ "RI-tree"; string_of_int (ri.index_entries ());
      Tbl.fmt_f br.Measure.avg_io;
      Tbl.fmt_f (1000. *. br.Measure.avg_seconds) ];
  Tbl.add_row t
    [ "Window-List"; string_of_int (wl.index_entries ());
      Tbl.fmt_f bw.Measure.avg_io;
      Tbl.fmt_f (1000. *. bw.Measure.avg_seconds) ];
  [ t ]

(* ---- Ablation: buffer-cache size ---- *)

let ablation_cache ~tiny =
  let n = scaled ~tiny 100_000 in
  let data = Dist.generate Dist.D1 ~n ~d:2000 in
  let caches = [ 50; 200; 1000 ] in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Ablation: physical I/O per query vs cache size, D1(%d,2k), sel 1%%"
           n)
      ~columns:[ "cache blocks"; "T-index"; "IST"; "RI-tree" ]
  in
  List.iter
    (fun cache ->
      let queries = Workload.Query_gen.queries ~data ~count:50 0.01 in
      let level = Methods.calibrated_tile_level data ~queries in
      let methods =
        [ Methods.ri_tree ~cache_blocks:cache ();
          Methods.tile ~cache_blocks:cache ~level ();
          Methods.ist ~cache_blocks:cache () ]
      in
      List.iter (fun m -> Methods.load m data) methods;
      match List.map (fun m -> batch_of m queries) methods with
      | [ bri; btile; bist ] ->
          Tbl.add_row t
            [ string_of_int cache; Tbl.fmt_f btile.Measure.avg_io;
              Tbl.fmt_f bist.Measure.avg_io; Tbl.fmt_f bri.Measure.avg_io ]
      | _ -> assert false)
    caches;
  [ t ]

(* ---- Ablation: bulk-loaded clustering vs dynamic insertion ----

   Sec. 6.3: "The fast response times of T-index and IST (e.g. 500 I/Os
   in two seconds) are caused by the good clustering properties of the
   bulk loaded indexes and will deteriorate in a dynamic environment." *)

let ablation_clustering ~tiny =
  let n = scaled ~tiny 100_000 in
  let data = Dist.generate Dist.D4 ~n ~d:2000 in
  let queries = Workload.Query_gen.queries ~data ~count:50 0.01 in
  let level = Methods.calibrated_tile_level data ~queries in
  let dynamic =
    [ Methods.ri_tree (); Methods.tile ~level (); Methods.ist () ]
  in
  List.iter (fun m -> Methods.load m data) dynamic;
  let bulk =
    [ Methods.ri_tree_bulk data; Methods.tile_bulk ~level data;
      Methods.ist_bulk data ]
  in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Ablation: dynamic insertion vs bulk-loaded clustering, D4(%d,2k), sel 1%%"
           n)
      ~columns:[ "method"; "build"; "device pages"; "avg I/O"; "avg ms" ]
  in
  let describe build (m : Methods.t) =
    let b = batch_of m queries in
    let pages =
      Storage.Block_device.allocated (Relation.Catalog.device m.catalog)
    in
    Tbl.add_row t
      [ m.label; build; string_of_int pages; Tbl.fmt_f b.Measure.avg_io;
        Tbl.fmt_f (1000. *. b.Measure.avg_seconds) ]
  in
  List.iter (describe "dynamic") dynamic;
  List.iter (describe "bulk") bulk;
  [ t ]

(* ---- Extension: intersection joins ---- *)

let join_bench ~tiny =
  let n = scaled ~tiny 20_000 in
  let d1 = Dist.generate ~seed:7 Dist.D1 ~n ~d:2000 in
  let d2 = Dist.generate ~seed:8 Dist.D1 ~n:(n / 2) ~d:1000 in
  let db = Relation.Catalog.create () in
  let left = Ritree.Ri_tree.create ~name:"left" db in
  let right = Ritree.Ri_tree.create ~name:"right" db in
  Array.iteri (fun i ivl -> ignore (Ritree.Ri_tree.insert ~id:i left ivl)) d1;
  Array.iteri (fun i ivl -> ignore (Ritree.Ri_tree.insert ~id:i right ivl)) d2;
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Extension: intersection join, D1(%d,2k) x D1(%d,1k)" n (n / 2))
      ~columns:[ "strategy"; "pairs"; "physical I/O"; "seconds" ]
  in
  let run label f =
    Relation.Catalog.flush db;
    Relation.Catalog.drop_cache db;
    Relation.Catalog.reset_io_stats db;
    let pairs, secs = Measure.wall f in
    let stats = Relation.Catalog.io_stats db in
    Tbl.add_row t
      [ label; string_of_int (List.length pairs);
        string_of_int
          (stats.Storage.Block_device.Stats.reads
           + stats.Storage.Block_device.Stats.writes);
        Tbl.fmt_f secs ]
  in
  run "index nested loop" (fun () -> Exec.Join.index_nested_ids left right);
  run "plane sweep" (fun () -> Exec.Join.sweep_ids left right);
  [ t ]

(* ---- Ablation: skeleton index (paper's proposed extension) ---- *)

let ablation_skeleton ~tiny =
  let n = scaled ~tiny 50_000 in
  (* data clustered in 5%% of the domain; queries sweep the whole
     domain, so most probes hit empty backbone regions *)
  let rng = Workload.Prng.create ~seed:9 in
  let db = Relation.Catalog.create () in
  let sk = Ritree.Skeleton.create db in
  ignore (Ritree.Skeleton.insert sk (Interval.Ivl.make 0 Dist.domain_max));
  let base = Dist.domain_max / 2 in
  for _ = 1 to n do
    let l = base + Workload.Prng.int rng (Dist.domain_max / 20) in
    ignore
      (Ritree.Skeleton.insert sk
         (Interval.Ivl.make l (min Dist.domain_max (l + Workload.Prng.int rng 500))))
  done;
  let queries = Workload.Query_gen.point_queries ~count:200 () in
  let ri = Ritree.Skeleton.ri sk in
  let count ?node_filter q =
    List.length (Exec.Planner.intersecting_ids ?node_filter ri q)
  in
  let plain = Measure.query_batch db (fun q -> count q) queries in
  let filtered =
    Measure.query_batch db
      (count ~node_filter:(Ritree.Skeleton.node_filter sk))
      queries
  in
  let probes =
    Array.fold_left
      (fun (p, f) q ->
        let a, b = Ritree.Skeleton.probes_saved sk q in
        (p + a, f + b))
      (0, 0) queries
  in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Ablation: skeleton index on clustered data (n=%d in 5%% of the domain), 200 stabbing queries"
           n)
      ~columns:[ "plan"; "node probes"; "avg I/O"; "avg ms" ]
  in
  Tbl.add_row t
    [ "plain RI-tree"; string_of_int (fst probes);
      Tbl.fmt_f plain.Measure.avg_io;
      Tbl.fmt_f (1000. *. plain.Measure.avg_seconds) ];
  Tbl.add_row t
    [ "skeleton-filtered"; string_of_int (snd probes);
      Tbl.fmt_f filtered.Measure.avg_io;
      Tbl.fmt_f (1000. *. filtered.Measure.avg_seconds) ];
  [ t ]

(* ---- Extension: cost-based plan choice (Sec. 5) ---- *)

let adaptive_bench ~tiny =
  let n = scaled ~tiny 50_000 in
  let data = Dist.generate Dist.D1 ~n ~d:2000 in
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun i ivl -> ignore (Ritree.Ri_tree.insert ~id:i tree ivl)) data;
  let stats = Ritree.Cost_model.Stats.analyze tree in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Extension: cost-based plan choice, D1(%d,2k): the optimizer switches to a scan at very high selectivity"
           n)
      ~columns:
        [ "selectivity %"; "choice"; "index I/O"; "scan I/O"; "adaptive I/O" ]
  in
  List.iter
    (fun sel ->
      let q =
        if sel >= 1.0 then
          Interval.Ivl.make (-Dist.domain_max) (2 * Dist.domain_max)
        else (Workload.Query_gen.queries ~data ~count:5 sel).(0)
      in
      let io f =
        Relation.Catalog.flush db;
        Relation.Catalog.drop_cache db;
        Relation.Catalog.reset_io_stats db;
        ignore (f ());
        let s = Relation.Catalog.io_stats db in
        s.Storage.Block_device.Stats.reads
        + s.Storage.Block_device.Stats.writes
      in
      (* all three columns run through the shared execution layer: the
         pinned two-branch plan, the pinned sequential scan, and the
         cost-model-selected path *)
      let index_io =
        io (fun () ->
            Exec.Planner.intersecting_ids ~path:Exec.Planner.Two_branch tree q)
      in
      let scan_io =
        io (fun () ->
            Exec.Planner.intersecting_ids ~path:Exec.Planner.Seq tree q)
      in
      let adaptive_io =
        io (fun () -> Exec.Planner.intersecting_ids ~stats tree q)
      in
      Tbl.add_row t
        [ (if sel >= 1.0 then "100 (covering)" else Printf.sprintf "%.1f" (100. *. sel));
          Exec.Planner.path_to_string (Exec.Planner.choose tree stats q);
          string_of_int index_io; string_of_int scan_io;
          string_of_int adaptive_io ])
    [ 0.001; 0.01; 0.1; 0.3; 0.6; 1.0 ];
  [ t ]

(* ---- Bechamel micro-benchmarks ---- *)

let micro ~tiny:_ =
  let open Bechamel in
  let data = Dist.generate Dist.D1 ~n:10_000 ~d:2000 in
  let db = Relation.Catalog.create () in
  let tree = Ritree.Ri_tree.create db in
  Array.iteri (fun id ivl -> ignore (Ritree.Ri_tree.insert ~id tree ivl)) data;
  let rng = Workload.Prng.create ~seed:7 in
  let roots = { Ritree.Backbone.left_root = 0; right_root = 1 lsl 19 } in
  let pool =
    Storage.Buffer_pool.create ~capacity:500 (Storage.Block_device.create ())
  in
  let btree = Btree.create pool ~key_width:3 in
  let counter = ref 0 in
  (* A warm 4-wide tree of 35k entries, the size of the server's
     covering index on mixed-disk, probed by one-key range cursors. *)
  let probe_keys =
    Array.init 35_000 (fun i -> [| i / 16; i * 3; (i * 3) + 100; i |])
  in
  let probe_tree =
    Btree.bulk_load
      (Storage.Buffer_pool.create ~capacity:1024
         (Storage.Block_device.create ()))
      ~key_width:4 (Array.to_seq probe_keys)
  in
  Btree.iter probe_tree ignore;
  (* The executor on the served plan: a warm covering D1 n=35 000
     relation answering 0.6 % intersections as (lower, upper, id). *)
  let served_data = Dist.generate ~seed:1 Dist.D1 ~n:35_000 ~d:2000 in
  let served =
    Ritree.Ri_tree.bulk_load ~layout:Ritree.Ri_tree.Covering
      (Relation.Catalog.create ~cache_blocks:4096 ())
      (Array.mapi (fun id ivl -> (ivl, id)) served_data)
  in
  let served_queries =
    Workload.Query_gen.queries ~seed:3 ~data:served_data ~count:64 0.006
  in
  let serve q =
    Exec.Planner.run
      (Exec.Planner.plan_intersection ~proj:Exec.Planner.Triples served q)
  in
  Array.iter (fun q -> ignore (serve q)) served_queries;
  (* A served point read: a point Intersect through [Session.handle] on
     the hot-point fixture (durable covering D1 n = 2 000 preloaded into
     the default 200-frame pool), seeded point queries. *)
  let hot = Server.Session.shared ~durable:true () in
  Server.Session.preload hot (Dist.generate ~seed:1 Dist.D1 ~n:2_000 ~d:2000);
  let hot_session = Server.Session.create hot in
  let points = Workload.Query_gen.point_queries ~seed:5 ~count:2_000 () in
  let point_read () =
    let q = points.(Workload.Prng.int rng 2_000) in
    ignore
      (Server.Session.handle hot_session
         (Server.Protocol.Intersect { lower = Ivl.lower q; upper = Ivl.upper q }))
  in
  for _ = 1 to 2_000 do point_read () done;
  (* A full scan of the warm probe tree into one key array, reported per
     entry. *)
  let scan_key = Array.make 4 0 in
  let scan_lo = Btree.lo_pad probe_tree []
  and scan_hi = Btree.hi_pad probe_tree [] in
  let scan () =
    let c = Btree.cursor probe_tree ~lo:scan_lo ~hi:scan_hi in
    while Btree.next_into c scan_key do
      ()
    done
  in
  (* A 174-row (lower, upper, id) answer, as the server frames it. *)
  let answer =
    Server.Protocol.Rows
      { columns = [ "lower"; "upper"; "id" ];
        rows =
          List.init 174 (fun i ->
              [| 500_000 + (37 * i); 503_000 + (41 * i); i |]) }
  in
  (* ns per entry for the full scan, per call for the rest *)
  let per_op name =
    if String.ends_with ~suffix:"btree.scan" name then
      float_of_int (Array.length probe_keys)
    else 1.
  in
  let tests =
    [ Test.make ~name:"backbone.fork"
        (Staged.stage (fun () ->
             let l = Workload.Prng.int rng 500_000 in
             ignore (Ritree.Backbone.fork roots ~l ~u:(l + 1000))));
      Test.make ~name:"backbone.collect"
        (Staged.stage (fun () ->
             let ql = Workload.Prng.int rng 500_000 in
             Ritree.Backbone.collect roots ~min_level:0 ~ql ~qu:(ql + 5000)
               ~left:(fun _ -> ())
               ~right:(fun _ -> ())));
      Test.make ~name:"btree.insert"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Btree.insert btree [| !counter mod 65536; !counter; 0 |])));
      Test.make ~name:"btree.probe"
        (Staged.stage (fun () ->
             let k = probe_keys.(Workload.Prng.int rng 35_000) in
             Btree.iter_range probe_tree ~lo:k ~hi:k ignore));
      Test.make ~name:"btree.scan" (Staged.stage scan);
      Test.make ~name:"wire.encode_rows"
        (Staged.stage (fun () ->
             ignore (Server.Protocol.encode_response ~id:1L answer)));
      Test.make ~name:"exec.intersection"
        (Staged.stage (fun () ->
             ignore (serve served_queries.(Workload.Prng.int rng 64))));
      Test.make ~name:"exec.point_intersection" (Staged.stage point_read);
      Test.make ~name:"ri.intersection(10k)"
        (Staged.stage (fun () ->
             let p = Workload.Prng.int rng 1_000_000 in
             ignore (Exec.Planner.intersecting_ids tree (Ivl.point p))))
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let t =
    Tbl.create ~title:"Micro-benchmarks (bechamel; btree.scan per entry)"
      ~columns:[ "operation"; "ns/op" ]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ])
      in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> Printf.sprintf "%.0f" (e /. per_op name)
            | _ -> "n/a"
          in
          Tbl.add_row t [ name; est ])
        analyzed)
    tests;
  [ t ]

