(* Parity suite: both main-memory structures (HINT, the hot tier's
   engine, and the interval tree) must agree with the Naive oracle on
   stabbing, intersection, and all thirteen Allen relations — across the
   paper's D1–D4 workloads and across adversarial bound values
   (min_int/max_int endpoints, points, empty stores): the bug class the
   PR 2 check_bound fix was about, now closed for the whole family. *)

module Ivl = Interval.Ivl
module Allen = Interval.Allen
module IT = Memindex.Interval_tree
module H = Memindex.Hint
module Naive = Memindex.Naive

let check = Alcotest.check
let sorted = List.sort_uniq Int.compare

(* A uniform facade over the two structures; the oracle stands apart. *)
type store = {
  s_name : string;
  stab : int -> int list;
  inter : Ivl.t -> int list;
  rel : Allen.relation -> Ivl.t -> int list;
}

let build_naive data =
  let n = Naive.create () in
  Array.iteri (fun i ivl -> ignore (Naive.insert ~id:i n ivl)) data;
  n

(* Universe is the full int range for the dynamic structures, so the
   clamped arithmetic paths are always in play. [m] is small enough that
   middle-partition sweeps actually happen. *)
let build_stores ?(m = 6) data =
  let it = IT.create ~lo:min_int ~hi:max_int in
  Array.iteri (fun i ivl -> ignore (IT.insert ~id:i it ivl)) data;
  let h = H.create ~lo:min_int ~hi:max_int ~m () in
  Array.iteri (fun i ivl -> ignore (H.insert ~id:i h ivl)) data;
  H.check_invariants h;
  [
    { s_name = "hint"; stab = H.stabbing_ids h; inter = H.intersecting_ids h;
      rel = (fun r q -> H.relation_ids h r q) };
    { s_name = "interval_tree"; stab = IT.stabbing_ids it;
      inter = IT.intersecting_ids it;
      rel = (fun r q -> IT.relation_ids it r q) };
  ]

let agree_on_query stores naive q =
  let expected = sorted (Naive.intersecting_ids naive q) in
  List.iter
    (fun s ->
      let got = sorted (s.inter q) in
      if got <> expected then
        Alcotest.failf "%s: intersection differs on %s (%d vs %d ids)"
          s.s_name (Ivl.to_string q) (List.length got)
          (List.length expected))
    stores

let agree_on_stab stores naive p =
  let expected = sorted (Naive.stabbing_ids naive p) in
  List.iter
    (fun s ->
      let got = sorted (s.stab p) in
      if got <> expected then
        Alcotest.failf "%s: stabbing differs at %d" s.s_name p)
    stores

let agree_on_relations stores naive q =
  List.iter
    (fun r ->
      let expected = sorted (Naive.relation_ids naive r q) in
      List.iter
        (fun s ->
          let got = sorted (s.rel r q) in
          if got <> expected then
            Alcotest.failf "%s: %s differs on %s (%d vs %d ids)" s.s_name
              (Allen.to_string r) (Ivl.to_string q) (List.length got)
              (List.length expected))
        stores)
    Allen.all

(* ---- D1..D4 parity ---- *)

let test_distribution kind () =
  let data = Workload.Distribution.generate ~seed:61 kind ~n:500 ~d:1_200 in
  let naive = build_naive data in
  let stores = build_stores ~m:8 data in
  let rng = Workload.Prng.create ~seed:62 in
  let dom = Workload.Distribution.domain_max in
  for i = 0 to 119 do
    let l = Workload.Prng.int rng dom in
    let q = Ivl.make l (min dom (l + Workload.Prng.int rng 4_000)) in
    agree_on_query stores naive q;
    agree_on_stab stores naive (Workload.Prng.int rng dom);
    if i mod 15 = 0 then agree_on_relations stores naive q
  done

(* ---- adversarial bounds: the check_bound bug class ---- *)

let edge_data =
  [|
    Ivl.make min_int min_int;
    Ivl.make min_int (min_int + 1);
    Ivl.make min_int (-5);
    Ivl.make min_int max_int;
    Ivl.make (-7) (-7);
    Ivl.make (-3) 4;
    Ivl.make 0 0;
    Ivl.make 1 2;
    Ivl.make 2 12;
    Ivl.make 5 max_int;
    Ivl.make (max_int - 1) max_int;
    Ivl.make max_int max_int;
  |]

let edge_queries =
  [
    Ivl.make min_int min_int;
    Ivl.make min_int (min_int + 2);
    Ivl.make min_int 0;
    Ivl.make min_int max_int;
    Ivl.make (-6) (-6);
    Ivl.make (-4) 3;
    Ivl.make 0 0;
    Ivl.make 2 2;
    Ivl.make 3 11;
    Ivl.make 12 (max_int - 1);
    Ivl.make max_int max_int;
    Ivl.make (max_int - 1) max_int;
  ]

let test_edges () =
  let naive = build_naive edge_data in
  let stores = build_stores ~m:4 edge_data in
  List.iter
    (fun q ->
      agree_on_query stores naive q;
      agree_on_stab stores naive (Ivl.lower q);
      agree_on_stab stores naive (Ivl.upper q);
      agree_on_relations stores naive q)
    edge_queries

let test_empty () =
  let naive = build_naive [||] in
  let stores = build_stores [||] in
  List.iter
    (fun q ->
      agree_on_query stores naive q;
      agree_on_relations stores naive q)
    [ Ivl.make min_int max_int; Ivl.point 0; Ivl.make (-5) 5 ]

(* ---- hint-specific: churn and deep hierarchies ---- *)

let test_hint_churn () =
  let rng = Workload.Prng.create ~seed:63 in
  let h = H.create ~lo:0 ~hi:100_000 ~m:10 () in
  let naive = Naive.create () in
  let live = ref [] in
  for i = 0 to 2_000 do
    if Workload.Prng.int rng 3 = 0 && !live <> [] then begin
      let ivl, id = List.hd !live in
      live := List.tl !live;
      check Alcotest.bool "delete agrees" (Naive.delete naive ~id ivl)
        (H.delete h ~id ivl)
    end
    else begin
      let l = Workload.Prng.int rng 90_000 in
      let ivl = Ivl.make l (min 100_000 (l + Workload.Prng.int rng 3_000)) in
      ignore (H.insert ~id:i h ivl);
      ignore (Naive.insert ~id:i naive ivl);
      live := (ivl, i) :: !live
    end
  done;
  H.check_invariants h;
  check Alcotest.int "count agrees" (Naive.count naive) (H.count h);
  check Alcotest.bool "replication happened" true (H.entry_count h > H.count h);
  for _ = 1 to 300 do
    let l = Workload.Prng.int rng 100_000 in
    let q = Ivl.make l (min 100_000 (l + Workload.Prng.int rng 5_000)) in
    let expected = sorted (Naive.intersecting_ids naive q) in
    let got = sorted (H.intersecting_ids h q) in
    if got <> expected then
      Alcotest.failf "hint differs after churn on %s" (Ivl.to_string q)
  done

let test_hint_universe () =
  let h = H.create ~lo:0 ~hi:100 () in
  ignore (H.insert ~id:1 h (Ivl.make 5 20));
  check Alcotest.bool "universe enforced" true
    (try
       ignore (H.insert h (Ivl.make 90 200));
       false
     with Invalid_argument _ -> true);
  check Alcotest.int "levels" 11 (H.levels h);
  check Alcotest.bool "bytes accounted" true (H.approx_bytes h > 0)

(* ---- QCheck: random data, random queries, random relation ---- *)

let interesting_point =
  QCheck.Gen.oneofl
    [ min_int; min_int + 1; -1_000_000; -1; 0; 1; 37; 1_000_000;
      max_int - 1; max_int ]

let gen_point =
  QCheck.Gen.(
    frequency
      [ (6, int_range (-60) 60); (2, int_range (-5_000) 5_000);
        (1, interesting_point) ])

let gen_ivl =
  QCheck.Gen.(
    map2
      (fun a b -> if a <= b then Ivl.make a b else Ivl.make b a)
      gen_point gen_point)

let arb_case =
  QCheck.make
    ~print:(fun (data, q, r) ->
      Printf.sprintf "data=[%s] q=%s rel=%s"
        (String.concat "; " (List.map Ivl.to_string data))
        (Ivl.to_string q) (Allen.to_string r))
    QCheck.Gen.(
      triple
        (list_size (int_range 0 60) gen_ivl)
        gen_ivl (oneofl Allen.all))

let prop_parity =
  QCheck.Test.make ~count:400 ~name:"all structures = naive oracle" arb_case
    (fun (data, q, r) ->
      let data = Array.of_list data in
      let naive = build_naive data in
      let stores = build_stores ~m:5 data in
      agree_on_query stores naive q;
      agree_on_stab stores naive (Ivl.lower q);
      agree_on_relations stores naive q;
      (* relation checked for all r by agree_on_relations; [r] keeps the
         generator shrinking useful when a single relation breaks *)
      ignore r;
      true)

let () =
  Alcotest.run "memindex-parity"
    [
      ( "distributions",
        List.map
          (fun kind ->
            Alcotest.test_case
              (Workload.Distribution.kind_to_string kind)
              `Quick (test_distribution kind))
          Workload.Distribution.all_kinds );
      ( "edges",
        [ Alcotest.test_case "min/max/point bounds" `Quick test_edges;
          Alcotest.test_case "empty stores" `Quick test_empty ] );
      ( "hint",
        [ Alcotest.test_case "churn vs oracle" `Quick test_hint_churn;
          Alcotest.test_case "universe and diagnostics" `Quick
            test_hint_universe ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest prop_parity ] );
    ]
