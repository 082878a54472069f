(* The covering index layout answers exactly what the paper's layout
   answers. The property replays one seeded MVCC history on a server
   relation of each layout (the covering one bulk-built by the server's
   preload, the paper's one by single inserts) — a committed batch of
   inserts and deletes, a reader whose snapshot predates it, a writer
   with buffered inserts and deletes — and compares every typed op (Intersect, the 13 Allen
   relations), SQL text and EXECUTE across the layouts and against brute
   force. The temporal now/infinity plan gets the same comparison. The
   unit cases pin the covering plans: no base-table access. *)

module S = Server.Session
module P = Server.Protocol
module Ri = Ritree.Ri_tree
module Ivl = Interval.Ivl
module Allen = Interval.Allen
module Temporal = Interval.Temporal
module Dist = Workload.Distribution

let sorted l = List.sort compare l

let resp_to_string = function
  | P.Ack m -> "ack: " ^ m
  | P.Error m -> "error: " ^ m
  | P.Invalid m -> "invalid: " ^ m
  | P.Conflict m -> "conflict: " ^ m
  | P.Rows _ -> "rows"
  | _ -> "other response"

let rows what = function
  | P.Rows { rows; _ } -> rows
  | r -> QCheck.Test.fail_reportf "%s: %s" what (resp_to_string r)

let ack what = function
  | P.Ack _ -> ()
  | r -> QCheck.Test.fail_reportf "%s: %s" what (resp_to_string r)

(* ---- the generated case ---- *)

type case = {
  kind : Dist.kind;
  n : int;
  seed : int;
  committed : int; (* inserts, and as many deletes, in the committed batch *)
  pending : int; (* buffered inserts and deletes of the open writer *)
}

let gen_case =
  QCheck.Gen.(
    let* kind = oneofl Dist.all_kinds in
    let* n = frequency [ (1, int_range 0 40); (3, int_range 300 1_500) ] in
    let* seed = int_range 1 10_000 in
    let* committed = int_range 0 10 in
    let* pending = int_range 0 10 in
    return { kind; n; seed; committed; pending })

let case_to_string c =
  Printf.sprintf "%s n=%d seed=%d committed=%d pending=%d"
    (Dist.kind_to_string c.kind) c.n c.seed c.committed c.pending

(* Queries drawn around the data: random windows and points, stored
   intervals themselves (Equals, Starts, Finishes ...) and windows that
   begin or end at a stored bound (Meets, Met_by). *)
let queries rng data =
  let stored () =
    if Array.length data = 0 then Ivl.make 0 10
    else data.(Random.State.int rng (Array.length data))
  in
  List.init 6 (fun i ->
      let w = Random.State.int rng 20_000 in
      match i mod 3 with
      | 0 ->
          let a = Random.State.int rng Dist.domain_max in
          Ivl.make a (a + if i = 3 then 0 else w)
      | 1 -> stored ()
      | _ ->
          let s = stored () in
          if Random.State.bool rng then Ivl.make (Ivl.upper s) (Ivl.upper s + w)
          else Ivl.make (max 0 (Ivl.lower s - w)) (Ivl.lower s))

let iq_sql =
  "SELECT lower, upper, id FROM intervals WHERE lower <= :qup AND upper >= \
   :qlow"

let intersect_sql proj q =
  Printf.sprintf "SELECT %s FROM intervals WHERE lower <= %d AND upper >= %d"
    proj (Ivl.upper q) (Ivl.lower q)

let triples pairs =
  List.map (fun (v, id) -> [| Ivl.lower v; Ivl.upper v; id |]) pairs

(* Everything a session answers for one query, each answer sorted:
   Intersect, the 13 Allen relations, SQL text projecting the triple and
   every column (the node must agree too), and the prepared [iq]. *)
type answers =
  int array list * int array list list * int array list * int array list
  * int array list

(* One session of the replayed history. *)
type session = {
  begin_ : unit -> unit;
  commit : unit -> unit;
  insert : id:int -> Ivl.t -> unit;
  delete : id:int -> Ivl.t -> unit;
  prepare : unit -> unit;
  answers : Ivl.t -> answers;
}

(* The server's relation (covering layout), driven through the wire
   protocol. *)
let server_sessions ?cache_blocks data =
  let sh = S.shared ?cache_blocks () in
  S.preload sh data;
  fun () ->
    let s = S.create sh in
    let ivl_rows what q req =
      sorted (rows what (S.handle s (req (Ivl.lower q) (Ivl.upper q))))
    in
    { begin_ = (fun () -> ack "begin" (S.handle s P.Begin));
      commit = (fun () -> ack "commit" (S.handle s P.Commit));
      insert =
        (fun ~id v ->
          ack "insert"
            (S.handle s
               (P.Insert { lower = Ivl.lower v; upper = Ivl.upper v;
                           id = Some id })));
      delete =
        (fun ~id v ->
          ack "delete"
            (S.handle s
               (P.Delete { lower = Ivl.lower v; upper = Ivl.upper v; id })));
      prepare =
        (fun () -> ack "prepare" (S.handle s (P.Prepare { name = "iq"; sql = iq_sql })));
      answers =
        (fun q ->
          ( ivl_rows "intersect" q (fun lower upper ->
                P.Intersect { lower; upper }),
            List.map
              (fun relation ->
                ivl_rows "allen" q (fun lower upper ->
                    P.Allen { relation; lower; upper }))
              Allen.all,
            sorted (rows "sql" (S.handle s (P.Sql (intersect_sql "lower, upper, id" q)))),
            sorted (rows "sql *" (S.handle s (P.Sql (intersect_sql "*" q)))),
            ivl_rows "execute" q (fun lower upper ->
                P.Execute { name = "iq"; params = [ upper; lower ] }) )) }

(* The paper's layout, wired the way a server session wires its
   relation — MVCC transactions, the typed-op planner under the
   session's snapshot, a SQL engine bound to the transaction — but
   without the server. *)
let paper_sessions ?cache_blocks data =
  let module Txn = Relation.Txn in
  let module Engine = Sqlfront.Engine in
  let cat = Relation.Catalog.create ?cache_blocks () in
  let ri = Ri.create ~layout:Ri.Paper cat in
  Array.iteri (fun id v -> ignore (Ri.insert ~id ri v)) data;
  Relation.Catalog.commit cat;
  let stats = Ritree.Cost_model.Stats.analyze ri in
  let mgr = Txn.create () in
  let table = Ri.table ri and tname = Ri.name ri in
  let sql_rows what = function
    | Engine.Rows { rows; _ } -> sorted rows
    | Engine.Done m -> QCheck.Test.fail_reportf "%s: %s" what m
  in
  fun () ->
    let txn = ref (Txn.begin_txn mgr) in
    let engine = Engine.session cat in
    Engine.set_txn engine !txn;
    Engine.set_ritree engine ri ~stats:(fun () -> stats) ~mem:(fun () -> None);
    let iq = ref None in
    let vis () = Txn.view !txn in
    { begin_ = (fun () -> Txn.pin !txn);
      commit =
        (fun () ->
          ignore (Txn.commit !txn);
          Relation.Catalog.commit cat;
          txn := Txn.begin_txn mgr;
          Engine.set_txn engine !txn);
      insert =
        (fun ~id v ->
          let _, row = Ri.prepare_insert ~id ri v in
          Txn.buffer_insert !txn ~table ~tname row);
      delete =
        (fun ~id v ->
          let candidates ~ok = Option.to_list (Ri.find_victim ~ok ri ~id v) in
          match Txn.victims ~candidates !txn ~table ~tname (fun _ -> true) with
          | (rowid, row) :: _ -> Txn.buffer_delete !txn ~table ~tname ~rowid ~row
          | [] -> QCheck.Test.fail_reportf "paper: no victim id %d" id);
      prepare = (fun () -> iq := Some (Engine.prepare engine iq_sql));
      answers =
        (fun q ->
          ( sorted
              (triples (Exec.Planner.intersecting ~stats ~vis:(vis ()) ri q)),
            List.map
              (fun r ->
                sorted
                  (triples (Exec.Planner.allen_matches ~vis:(vis ()) ri r q)))
              Allen.all,
            sql_rows "sql" (Engine.exec engine (intersect_sql "lower, upper, id" q)),
            sql_rows "sql *" (Engine.exec engine (intersect_sql "*" q)),
            sql_rows "execute"
              (Engine.execute_prepared engine (Option.get !iq)
                 [ Ivl.upper q; Ivl.lower q ]) )) }

(* The same answers computed by brute force over the visible rows. *)
let brute visible q =
  let l = Ivl.lower q and u = Ivl.upper q in
  let triple (lo, up, id) = [| lo; up; id |] in
  let hits = List.filter (fun (lo, up, _) -> lo <= u && up >= l) visible in
  let allen =
    List.map
      (fun r ->
        sorted
          (List.map triple
             (List.filter (fun (lo, up, _) -> Allen.holds r (Ivl.make lo up) q)
                visible)))
      Allen.all
  in
  (sorted (List.map triple hits), allen)

(* The history, replayed identically on the sessions [open_session]
   makes: per session (old reader, writer with pending writes, fresh
   reader), its answers and its visible rows. *)
let run_history open_session c data =
  let rng = Random.State.make [| c.seed |] in
  let model = Hashtbl.create (max 1 c.n) in
  Array.iteri
    (fun id v -> Hashtbl.replace model id (Ivl.lower v, Ivl.upper v))
    data;
  let snapshot () =
    Hashtbl.fold (fun id (l, u) acc -> (l, u, id) :: acc) model []
  in
  let writes s ~first k =
    for i = 0 to k - 1 do
      let l = Random.State.int rng Dist.domain_max in
      let u = l + Random.State.int rng 8_000 in
      let id = first + i in
      s.insert ~id (Ivl.make l u);
      Hashtbl.replace model id (l, u);
      if c.n > 0 then
        let victim = Random.State.int rng c.n in
        match Hashtbl.find_opt model victim with
        | Some (l, u) ->
            s.delete ~id:victim (Ivl.make l u);
            Hashtbl.remove model victim
        | None -> ()
    done
  in
  let old_reader = open_session () in
  old_reader.begin_ ();
  let old_rows = snapshot () in
  let w1 = open_session () in
  w1.begin_ ();
  writes w1 ~first:1_000_000 c.committed;
  w1.commit ();
  let fresh_rows = snapshot () in
  let w2 = open_session () in
  w2.begin_ ();
  writes w2 ~first:2_000_000 c.pending;
  let w2_rows = snapshot () in
  let fresh = open_session () in
  let sessions =
    [ (old_reader, old_rows); (w2, w2_rows); (fresh, fresh_rows) ]
  in
  List.iter (fun (s, _) -> s.prepare ()) sessions;
  let qs = queries rng data in
  (List.map (fun (s, visible) -> (visible, List.map s.answers qs)) sessions,
   qs)

let layout_parity ?cache_blocks c =
  let data = Dist.generate ~seed:c.seed c.kind ~n:c.n ~d:2_000 in
  let paper, qs = run_history (paper_sessions ?cache_blocks data) c data in
  let covering, _ = run_history (server_sessions ?cache_blocks data) c data in
  List.iteri
    (fun si ((visible, p_answers), (_, c_answers)) ->
      List.iter2
        (fun q (typed, allen, sql, star, exec) ->
          let fail what =
            QCheck.Test.fail_reportf
              "%s ≠ brute force: session %d, query %s" what si
              (Ivl.to_string q)
          in
          let hits, want_allen = brute visible q in
          let star_triples =
            sorted (List.map (fun (r : int array) -> Array.sub r 1 3) star)
          in
          if typed <> hits then fail "Intersect";
          if allen <> want_allen then fail "Allen";
          if sql <> hits then fail "SQL";
          if star_triples <> hits then fail "SELECT *";
          if exec <> hits then fail "EXECUTE")
        qs p_answers;
      if p_answers <> c_answers then
        QCheck.Test.fail_reportf "session %d: the layouts disagree" si)
    (List.combine paper covering);
  true

let layout_parity_name =
  "covering ≡ paper layout ≡ brute force (typed, Allen, SQL, EXECUTE)"

let prop_layout_parity =
  QCheck.Test.make ~count:25 ~name:layout_parity_name
    (QCheck.make ~print:case_to_string gen_case)
    (fun c -> layout_parity c)

(* The same history on pools of 4-8 frames: nearly every fault recycles
   the victim's frame and buffer, so a page buffer kept past its unpin
   reads another page's bytes and fails the comparison. *)
let prop_layout_parity_few_frames =
  QCheck.Test.make ~count:8 ~name:("4-8 frames: " ^ layout_parity_name)
    QCheck.(pair (int_range 4 8) (make ~print:case_to_string gen_case))
    (fun (cache_blocks, c) -> layout_parity ~cache_blocks c)

(* ---- temporal now/infinity plan ---- *)

let prop_temporal_parity =
  QCheck.Test.make ~count:40 ~name:"temporal plan: covering ≡ paper ≡ oracle"
    QCheck.(
      make
        Gen.(
          let* seed = int_range 1 10_000 in
          let* l = int_bound 250_000 in
          let* len = int_bound 20_000 in
          let* now = int_bound 250_000 in
          return (seed, Ivl.make l (l + len), now))
        ~print:(fun (seed, q, now) ->
          Printf.sprintf "seed=%d %s @now=%d" seed (Ivl.to_string q) now))
    (fun (seed, q, now) ->
      let build layout =
        let rng = Random.State.make [| seed |] in
        let store =
          Ritree.Temporal_store.create ~layout (Relation.Catalog.create ())
        in
        let stored =
          List.init 300 (fun id ->
              let lower = Random.State.int rng 200_000 in
              let t =
                match Random.State.int rng 3 with
                | 0 ->
                    Temporal.make lower
                      (Finite (lower + Random.State.int rng 5_000))
                | 1 -> Temporal.make lower Now
                | _ -> Temporal.make lower Infinity
              in
              ignore (Ritree.Temporal_store.insert ~id store t);
              (t, id))
        in
        (* drop every fifth finite interval again *)
        let stored =
          List.filter
            (fun (t, id) ->
              match t.Temporal.upper with
              | Finite u when id mod 5 = 0 ->
                  not
                    (Ri.delete (Ritree.Temporal_store.ri store) ~id
                       (Ivl.make t.Temporal.lower u))
              | Finite _ | Now | Infinity -> true)
            stored
        in
        (sorted (Exec.Planner.temporal_matches store ~now q), stored)
      in
      let paper, stored = build Ri.Paper in
      let covering, _ = build Ri.Covering in
      let oracle =
        sorted
          (List.filter (fun (t, _) -> Temporal.intersects ~now t q) stored)
      in
      paper = covering && paper = oracle)

(* ---- plan shape ---- *)

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let explain s target =
  match S.handle s (P.Explain { analyze = false; target }) with
  | P.Ack text -> text
  | r -> Alcotest.failf "explain: %s" (resp_to_string r)

let explain_data = Dist.generate ~seed:1 Dist.D1 ~n:2_000 ~d:2_000

(* The server's Intersect and Allen plans read the indexes alone; the
   paper's layout must fetch the rows for the same projection. *)
let test_explain_no_heap_access () =
  let sh = S.shared () in
  S.preload sh explain_data;
  let s = S.create sh in
  let targets =
    P.Explain_intersect { lower = 500_000; upper = 506_000 }
    :: List.map
         (fun relation ->
           P.Explain_allen { relation; lower = 500_000; upper = 506_000 })
         [ Allen.Contains; Allen.During; Allen.Before; Allen.After;
           Allen.Meets; Allen.Met_by ]
  in
  List.iter
    (fun target ->
      let text = explain s target in
      check Alcotest.bool "index range scan" true
        (contains text "INDEX RANGE SCAN");
      check Alcotest.bool ("no table access:\n" ^ text) false
        (contains text "TABLE ACCESS BY ROWID"))
    targets;
  let paper = Ri.create ~layout:Ri.Paper (Relation.Catalog.create ()) in
  Array.iteri (fun id v -> ignore (Ri.insert ~id paper v)) explain_data;
  let text =
    Exec.Planner.explain ~stats:(Ritree.Cost_model.Stats.analyze paper) paper
      (Exec.Planner.Intersect_target (Ivl.make 500_000 506_000))
  in
  check Alcotest.bool "the paper's layout fetches rows" true
    (contains text "TABLE ACCESS BY ROWID")

(* EXPLAIN prices with the session's cached statistics: once a query has
   built them, no EXPLAIN (typed or SQL) reads a page, even from a cold
   pool. *)
let test_explain_reads_no_page () =
  let sh = S.shared () in
  S.preload sh explain_data;
  let s = S.create sh in
  ignore
    (rows "intersect"
       (S.handle s (P.Intersect { lower = 500_000; upper = 506_000 })));
  let cat = S.catalog sh in
  Relation.Catalog.flush cat;
  Relation.Catalog.drop_cache cat;
  Relation.Catalog.reset_io_stats cat;
  List.iter
    (fun target -> ignore (explain s target))
    [ P.Explain_intersect { lower = 500_000; upper = 506_000 };
      P.Explain_allen
        { relation = Allen.During; lower = 500_000; upper = 506_000 };
      P.Explain_sql
        "SELECT id FROM intervals WHERE lower <= 506000 AND upper >= 500000" ];
  check Alcotest.int "device reads" 0
    (Relation.Catalog.io_stats cat).Storage.Block_device.Stats.reads

let () =
  Alcotest.run "covering"
    [ ( "parity",
        [ QCheck_alcotest.to_alcotest prop_layout_parity;
          QCheck_alcotest.to_alcotest prop_temporal_parity;
          QCheck_alcotest.to_alcotest prop_layout_parity_few_frames ] );
      ( "plan",
        [ Alcotest.test_case "EXPLAIN without heap access" `Quick
            test_explain_no_heap_access;
          Alcotest.test_case "EXPLAIN reads no page with built stats" `Quick
            test_explain_reads_no_page ] ) ]
