(* Tests for tmedb_steiner: CSR digraphs, Dijkstra, arborescences and
   the recursive-greedy directed Steiner tree solver. *)

open Tmedb_prelude
open Tmedb_steiner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Digraph *)

let diamond () =
  (* 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (1), 1 -> 3 (5), 2 -> 3 (1) *)
  Digraph.of_edges ~n:4 [ (0, 1, 1.); (0, 2, 4.); (1, 2, 1.); (1, 3, 5.); (2, 3, 1.) ]

let test_digraph_basics () =
  let g = diamond () in
  check_int "n" 4 (Digraph.n g);
  check_int "m" 5 (Digraph.m g);
  check_int "outdeg 0" 2 (Digraph.out_degree g 0);
  check_int "outdeg 3" 0 (Digraph.out_degree g 3);
  Alcotest.(check (option (float 0.))) "weight" (Some 4.) (Digraph.edge_weight g 0 2);
  Alcotest.(check (option (float 0.))) "absent" None (Digraph.edge_weight g 3 0)

let test_digraph_parallel_edges () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 5.); (0, 1, 2.) ] in
  Alcotest.(check (option (float 0.))) "min parallel" (Some 2.) (Digraph.edge_weight g 0 1)

let test_digraph_reverse () =
  let g = Digraph.reverse (diamond ()) in
  Alcotest.(check (option (float 0.))) "reversed edge" (Some 1.) (Digraph.edge_weight g 1 0);
  Alcotest.(check (option (float 0.))) "forward gone" None (Digraph.edge_weight g 0 1)

(* Every vertex's successor list, in enumeration order. *)
let succ_lists g =
  List.init (Digraph.n g) (fun u ->
      List.rev (Digraph.fold_succ g u (fun acc v w -> (v, w) :: acc) []))

(* [Digraph.reverse] fills the transposed CSR by counting; the list
   reference prepends every (v, u, w) and hands the list to [of_edges],
   which fixes the predecessor order Dijkstra's tie-breaks depend on.
   Random multigraphs with parallel edges, self-loops and 0 weights. *)
let prop_digraph_reverse_matches_list =
  QCheck.Test.make ~name:"reverse matches the list-based transpose" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 8 in
      let weights = [| 0.; 0.; 1.; 2.5 |] in
      let edges =
        List.init (Rng.int rng 30) (fun _ ->
            (Rng.int rng n, Rng.int rng n, weights.(Rng.int rng (Array.length weights))))
      in
      let g = Digraph.of_edges ~n edges in
      let reference =
        let acc = ref [] in
        for u = 0 to n - 1 do
          Digraph.iter_succ g u (fun v w -> acc := (v, u, w) :: !acc)
        done;
        Digraph.of_edges ~n !acc
      in
      let r = Digraph.reverse g in
      Digraph.m r = Digraph.m g && succ_lists r = succ_lists reference)

let test_digraph_validation () =
  Alcotest.check_raises "negative weight" (Invalid_argument "Digraph.of_edges: negative weight")
    (fun () -> ignore (Digraph.of_edges ~n:2 [ (0, 1, -1.) ]));
  Alcotest.check_raises "range" (Invalid_argument "Digraph.of_edges: vertex out of range")
    (fun () -> ignore (Digraph.of_edges ~n:2 [ (0, 5, 1.) ]))

let test_digraph_fold () =
  let g = diamond () in
  let total = Digraph.fold_succ g 1 (fun acc _ w -> acc +. w) 0. in
  check_float "sum out of 1" 6. total

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_dijkstra_distances () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  check_float "d(0)" 0. r.Dijkstra.dist.(0);
  check_float "d(1)" 1. r.Dijkstra.dist.(1);
  check_float "d(2)" 2. r.Dijkstra.dist.(2);
  check_float "d(3)" 3. r.Dijkstra.dist.(3)

let test_dijkstra_unreachable () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let r = Dijkstra.run g ~src:0 in
  check_bool "infinite" true (r.Dijkstra.dist.(2) = Float.infinity);
  check_bool "no path" true (Dijkstra.path r ~src:0 ~dst:2 = None)

let test_dijkstra_path () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ]) (Dijkstra.path r ~src:0 ~dst:3)

let test_dijkstra_path_edges () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  match Dijkstra.path_edges g r ~src:0 ~dst:3 with
  | None -> Alcotest.fail "expected path"
  | Some edges ->
      check_float "total" 3. (List.fold_left (fun acc (_, _, w) -> acc +. w) 0. edges)

let test_dijkstra_zero_weights () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 0.); (1, 2, 0.) ] in
  let r = Dijkstra.run g ~src:0 in
  check_float "zero chain" 0. r.Dijkstra.dist.(2)

let test_dijkstra_multi_source () =
  let g = Digraph.of_edges ~n:4 [ (0, 2, 5.); (1, 2, 1.); (2, 3, 1.) ] in
  let r = Dijkstra.run_multi g ~sources:[ 0; 1 ] in
  check_float "source 0" 0. r.Dijkstra.dist.(0);
  check_float "source 1" 0. r.Dijkstra.dist.(1);
  check_float "nearest source wins" 1. r.Dijkstra.dist.(2);
  check_float "chained" 2. r.Dijkstra.dist.(3)

let test_dijkstra_refine () =
  let g = Digraph.of_edges ~n:4 [ (0, 1, 10.); (2, 1, 1.); (1, 3, 1.) ] in
  let r = Dijkstra.run_multi g ~sources:[ 0 ] in
  check_float "before refine" 10. r.Dijkstra.dist.(1);
  Dijkstra.refine g r ~new_sources:[ 2 ];
  check_float "refined" 1. r.Dijkstra.dist.(1);
  check_float "downstream updated" 2. r.Dijkstra.dist.(3);
  check_float "old source kept" 0. r.Dijkstra.dist.(0)

let test_dijkstra_refine_noop () =
  (* Refining with an already-closer vertex must change nothing. *)
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  let before = Array.copy r.Dijkstra.dist in
  Dijkstra.refine g r ~new_sources:[ 0 ];
  Alcotest.(check (array (float 0.))) "unchanged" before r.Dijkstra.dist

let test_dijkstra_random_vs_bellman () =
  (* Cross-check Dijkstra against Bellman-Ford on random graphs. *)
  let rng = Rng.create 77 in
  for _ = 1 to 20 do
    let n = 4 + Rng.int rng 8 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && Rng.unit_float rng < 0.35 then
          edges := (u, v, Rng.float rng 10.) :: !edges
      done
    done;
    let g = Digraph.of_edges ~n !edges in
    let r = Dijkstra.run g ~src:0 in
    (* Bellman-Ford. *)
    let dist = Array.make n Float.infinity in
    dist.(0) <- 0.;
    for _ = 1 to n do
      List.iter
        (fun (u, v, w) -> if dist.(u) +. w < dist.(v) then dist.(v) <- dist.(u) +. w)
        !edges
    done;
    for v = 0 to n - 1 do
      check_bool "agrees with bellman-ford" true
        (Futil.approx_eq ~abs:1e-9 dist.(v) r.Dijkstra.dist.(v)
        || (dist.(v) = Float.infinity && r.Dijkstra.dist.(v) = Float.infinity))
    done
  done

(* ------------------------------------------------------------------ *)
(* Arborescence *)

let test_arborescence_valid () =
  match Arborescence.of_edges ~n:4 ~root:0 [ (0, 1, 1.); (1, 2, 2.); (0, 3, 3.) ] with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check_float "cost" 6. (Arborescence.cost t);
      check_bool "mem 2" true (Arborescence.mem t 2);
      Alcotest.(check (option int)) "depth 2" (Some 2) (Arborescence.depth t 2);
      Alcotest.(check (list int)) "vertices" [ 0; 1; 2; 3 ] (Arborescence.vertices t);
      check_bool "spans" true (Arborescence.spans t [ 1; 3 ]);
      (match Arborescence.topological_order t with
      | 0 :: rest -> check_int "root first" 3 (List.length rest)
      | _ -> Alcotest.fail "root must come first")

let test_arborescence_two_parents () =
  match Arborescence.of_edges ~n:3 ~root:0 [ (0, 1, 1.); (2, 1, 1.) ] with
  | Error e -> check_bool "two parents" true (e = "vertex 1 has two parents")
  | Ok _ -> Alcotest.fail "expected error"

let test_arborescence_cycle () =
  match Arborescence.of_edges ~n:3 ~root:0 [ (1, 2, 1.); (2, 1, 1.) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected cycle/disconnection error"

let test_arborescence_reparent_root () =
  match Arborescence.of_edges ~n:2 ~root:0 [ (1, 0, 1.) ] with
  | Error e -> check_bool "root" true (e = "edge re-parents the root")
  | Ok _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Dst *)

let test_dst_star () =
  (* Root connects to each terminal directly: tree = all edges. *)
  let g = Digraph.of_edges ~n:4 [ (0, 1, 1.); (0, 2, 2.); (0, 3, 3.) ] in
  let o = Dst.solve g ~root:0 ~terminals:[ 1; 2; 3 ] in
  check_bool "all covered" true (o.Dst.uncovered = []);
  check_float "cost" 6. o.Dst.tree.Dst.cost

let test_dst_shares_path () =
  (* Terminals 2 and 3 behind a shared expensive edge: the tree must
     pay it once. *)
  let g = Digraph.of_edges ~n:4 [ (0, 1, 10.); (1, 2, 1.); (1, 3, 1.) ] in
  let o = Dst.solve g ~root:0 ~terminals:[ 2; 3 ] in
  check_bool "covered" true (o.Dst.uncovered = []);
  check_float "shared trunk" 12. o.Dst.tree.Dst.cost

let test_dst_level2_beats_level1_sometimes () =
  (* Classic trap: direct edges cost 6 each, a shared hub costs
     7 + 1 + 1 + 1 = 10 for three terminals vs 18 direct. *)
  let g =
    Digraph.of_edges ~n:5
      [ (0, 4, 7.); (4, 1, 1.); (4, 2, 1.); (4, 3, 1.); (0, 1, 6.); (0, 2, 6.); (0, 3, 6.) ]
  in
  let o1 = Dst.solve ~level:1 g ~root:0 ~terminals:[ 1; 2; 3 ] in
  let o2 = Dst.solve ~level:2 g ~root:0 ~terminals:[ 1; 2; 3 ] in
  check_bool "both cover" true (o1.Dst.uncovered = [] && o2.Dst.uncovered = []);
  check_float "level 2 optimal" 10. o2.Dst.tree.Dst.cost;
  check_bool "level 2 <= level 1" true (o2.Dst.tree.Dst.cost <= o1.Dst.tree.Dst.cost)

let test_dst_equidistant_terminals () =
  (* Terminals 1 and 2 are both at distance 2 from the root, which is
     the first best-density branch vertex of round one, and it takes
     one terminal there.  The (distance, terminal index) order picks 1;
     with 1 in the tree, 3 -> 2 becomes the cheapest way to reach 2 and
     the tree costs 5.  Picking 2 first would pay the direct 0 -> 2
     and cost 6. *)
  let g = Digraph.of_edges ~n:4 [ (0, 1, 2.); (0, 2, 2.); (1, 3, 2.); (3, 2, 1.) ] in
  let o = Dst.solve ~level:2 g ~root:0 ~terminals:[ 1; 2; 3 ] in
  Alcotest.(check (list (triple int int (float 0.))))
    "tree" [ (0, 1, 2.); (1, 3, 2.); (3, 2, 1.) ] o.Dst.tree.Dst.edges;
  check_float "cost" 5. o.Dst.tree.Dst.cost

let test_dst_unreachable_terminal () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let o = Dst.solve g ~root:0 ~terminals:[ 1; 2 ] in
  Alcotest.(check (list int)) "uncovered" [ 2 ] o.Dst.uncovered;
  Alcotest.(check (list int)) "covered" [ 1 ] o.Dst.tree.Dst.covered

let test_dst_root_terminal_free () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let o = Dst.solve g ~root:0 ~terminals:[ 0; 1 ] in
  check_bool "root not counted uncovered" true (o.Dst.uncovered = []);
  check_float "cost 1" 1. o.Dst.tree.Dst.cost

let test_dst_prune_removes_slack () =
  let g = Digraph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 1.); (0, 3, 1.) ] in
  (* A tree with a useless edge 0->3 when only terminal 2 matters. *)
  let bloated = { Dst.edges = [ (0, 1, 1.); (1, 2, 1.); (0, 3, 1.) ]; cost = 3.; covered = [ 2 ] } in
  let pruned = Dst.prune g ~root:0 bloated in
  check_float "slack removed" 2. pruned.Dst.cost

let test_dst_tree_cost_dedups () =
  check_float "dedup" 3. (Dst.tree_cost [ (0, 1, 1.); (0, 1, 1.); (1, 2, 2.) ])

let test_dst_validation () =
  let g = diamond () in
  Alcotest.check_raises "level" (Invalid_argument "Dst.solve: level < 1") (fun () ->
      ignore (Dst.solve ~level:0 g ~root:0 ~terminals:[ 1 ]));
  Alcotest.check_raises "terminal range" (Invalid_argument "Dst.solve: terminal out of range")
    (fun () -> ignore (Dst.solve g ~root:0 ~terminals:[ 9 ]))

(* Random-instance properties: the solution covers every reachable
   terminal, its edges exist in the graph, its cost >= the shortest
   path to the farthest covered terminal (trivial lower bound) and <=
   the sum of individual shortest paths (upper bound of A1). *)
let random_graph seed =
  let rng = Rng.create seed in
  let n = 5 + Rng.int rng 10 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.unit_float rng < 0.3 then edges := (u, v, 0.5 +. Rng.float rng 9.5) :: !edges
    done
  done;
  (Digraph.of_edges ~n !edges, n, rng)

let prop_dst_sound =
  QCheck.Test.make ~name:"DST covers reachable terminals within A1 bound" ~count:60
    QCheck.small_int (fun seed ->
      let g, n, rng = random_graph seed in
      let terminals =
        List.sort_uniq Int.compare (List.init 4 (fun _ -> 1 + Rng.int rng (n - 1)))
      in
      let o = Dst.solve ~level:2 g ~root:0 ~terminals in
      let r = Dijkstra.run g ~src:0 in
      let reachable = List.filter (fun t -> Float.is_finite r.Dijkstra.dist.(t)) terminals in
      let covered_ok = List.for_all (fun t -> List.mem t o.Dst.tree.Dst.covered) reachable in
      let edges_exist =
        List.for_all
          (fun (u, v, w) ->
            match Digraph.edge_weight g u v with Some w0 -> w0 <= w +. 1e-9 | None -> false)
          o.Dst.tree.Dst.edges
      in
      let a1_bound =
        List.fold_left (fun acc t -> acc +. r.Dijkstra.dist.(t)) 0. reachable
      in
      covered_ok && edges_exist && o.Dst.tree.Dst.cost <= a1_bound +. 1e-6)

let prop_dst_prune_keeps_coverage =
  QCheck.Test.make ~name:"prune keeps coverage, never raises cost" ~count:60 QCheck.small_int
    (fun seed ->
      let g, n, rng = random_graph (seed + 1000) in
      let terminals =
        List.sort_uniq Int.compare (List.init 3 (fun _ -> 1 + Rng.int rng (n - 1)))
      in
      let o = Dst.solve ~level:2 g ~root:0 ~terminals in
      let pruned = Dst.prune g ~root:0 o.Dst.tree in
      pruned.Dst.cost <= o.Dst.tree.Dst.cost +. 1e-9
      &&
      let sub = Digraph.of_edges ~n:(Digraph.n g) pruned.Dst.edges in
      let r = Dijkstra.run sub ~src:0 in
      List.for_all (fun t -> Float.is_finite r.Dijkstra.dist.(t)) o.Dst.tree.Dst.covered)

let prop_dst_pruned_is_arborescence =
  QCheck.Test.make ~name:"pruned trees are arborescences" ~count:60 QCheck.small_int
    (fun seed ->
      let g, n, rng = random_graph (seed + 2000) in
      let terminals =
        List.sort_uniq Int.compare (List.init 3 (fun _ -> 1 + Rng.int rng (n - 1)))
      in
      let o = Dst.solve ~level:2 g ~root:0 ~terminals in
      let pruned = Dst.prune g ~root:0 o.Dst.tree in
      match Arborescence.of_edges ~n:(Digraph.n g) ~root:0 pruned.Dst.edges with
      | Ok t -> Arborescence.spans t pruned.Dst.covered
      | Error _ -> false)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "steiner"
    [
      ( "digraph",
        [
          tc "basics" test_digraph_basics;
          tc "parallel edges" test_digraph_parallel_edges;
          tc "reverse" test_digraph_reverse;
          QCheck_alcotest.to_alcotest prop_digraph_reverse_matches_list;
          tc "validation" test_digraph_validation;
          tc "fold" test_digraph_fold;
        ] );
      ( "dijkstra",
        [
          tc "distances" test_dijkstra_distances;
          tc "unreachable" test_dijkstra_unreachable;
          tc "path" test_dijkstra_path;
          tc "path edges" test_dijkstra_path_edges;
          tc "zero weights" test_dijkstra_zero_weights;
          tc "multi source" test_dijkstra_multi_source;
          tc "refine" test_dijkstra_refine;
          tc "refine noop" test_dijkstra_refine_noop;
          tc "random vs bellman-ford" test_dijkstra_random_vs_bellman;
        ] );
      ( "arborescence",
        [
          tc "valid" test_arborescence_valid;
          tc "two parents" test_arborescence_two_parents;
          tc "cycle" test_arborescence_cycle;
          tc "reparent root" test_arborescence_reparent_root;
        ] );
      ( "dst",
        [
          tc "star" test_dst_star;
          tc "shares path" test_dst_shares_path;
          tc "level 2 beats level 1" test_dst_level2_beats_level1_sometimes;
          tc "equidistant terminals" test_dst_equidistant_terminals;
          tc "unreachable terminal" test_dst_unreachable_terminal;
          tc "root terminal free" test_dst_root_terminal_free;
          tc "prune removes slack" test_dst_prune_removes_slack;
          tc "tree cost dedups" test_dst_tree_cost_dedups;
          tc "validation" test_dst_validation;
          QCheck_alcotest.to_alcotest prop_dst_sound;
          QCheck_alcotest.to_alcotest prop_dst_prune_keeps_coverage;
          QCheck_alcotest.to_alcotest prop_dst_pruned_is_arborescence;
        ] );
    ]
