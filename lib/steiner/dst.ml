type tree = { edges : (int * int * float) list; cost : float; covered : int list }
type outcome = { tree : tree; uncovered : int list }

(* Telemetry: [dst.expansions] counts greedy rounds that realized a
   candidate into the partial tree (the outer-loop work measure of the
   recursive-greedy algorithm); [dst.level2_scans] counts full
   candidate-table sweeps. *)
let c_solves = Tmedb_obs.Counter.make "dst.solves"
let c_expansions = Tmedb_obs.Counter.make "dst.expansions"
let c_level2_scans = Tmedb_obs.Counter.make "dst.level2_scans"
let t_solve = Tmedb_obs.Timer.make "dst.solve"
let t_terminal_maps = Tmedb_obs.Timer.make "dst.terminal_maps"
let h_expansion_rounds = Tmedb_obs.Histogram.make "dst.expansion_rounds"

(* Edge sets keyed by u*n+v, keeping the cheapest parallel weight. *)
module Edge_set = struct
  type t = { n : int; table : (int, float) Hashtbl.t }

  let create n = { n; table = Hashtbl.create 64 }

  let add t (u, v, w) =
    let key = (u * t.n) + v in
    match Hashtbl.find_opt t.table key with
    | Some w0 when w0 <= w -> ()
    | Some _ | None -> Hashtbl.replace t.table key w

  let add_list t es = List.iter (add t) es

  (* Key-sorted bindings: bucket order must not leak into edge lists
     or float summation order (lint rule R1). *)
  let bindings t =
    List.sort
      (fun (k1, _) (k2, _) -> Int.compare k1 k2)
      (Hashtbl.fold (fun key w acc -> (key, w) :: acc) t.table [])

  let cost t = List.fold_left (fun acc (_, w) -> acc +. w) 0. (bindings t)
  let to_list t = List.map (fun (key, w) -> (key / t.n, key mod t.n, w)) (bindings t)
end

let tree_cost edges =
  let module S = Set.Make (struct
    type t = int * int

    let compare = Stdlib.compare
  end) in
  let _, total =
    List.fold_left
      (fun (seen, total) (u, v, w) ->
        if S.mem (u, v) seen then (seen, total) else (S.add (u, v) seen, total +. w))
      (S.empty, 0.) edges
  in
  total

(* Per-terminal reversed-graph Dijkstra: the next hop of v on a
   shortest path v -> terminal.  The distances feed the terminal table
   ([build_table]). *)
type terminal_maps = {
  ids : int array;  (* terminal vertex ids *)
  next : int array array;  (* next hop from v toward terminal ti *)
}

(* [rev] is the reversed graph as a view, so a lazily generated reverse
   adjacency works.  Returns the maps and the k distance rows
   [dist.(ti).(v)], which only [build_table] reads. *)
let build_terminal_maps ~rev terminals =
  Tmedb_obs.Span.with_ "dst.terminal_maps" (fun () ->
      Tmedb_obs.Timer.time t_terminal_maps (fun () ->
          let ids = Array.of_list terminals in
          let dist = Array.make (Array.length ids) [||] in
          let next = Array.make (Array.length ids) [||] in
          Array.iteri
            (fun ti term ->
              let r = Dijkstra.run_view rev ~src:term in
              dist.(ti) <- r.Dijkstra.dist;
              next.(ti) <- r.Dijkstra.pred)
            ids;
          ({ ids; next }, dist)))

(* Edges of the shortest path v -> terminal ti, following next hops. *)
let path_to_terminal fwd maps ~ti ~v =
  let term = maps.ids.(ti) in
  let rec walk u acc =
    if u = term then List.rev acc
    else begin
      let nxt = maps.next.(ti).(u) in
      if nxt < 0 then List.rev acc (* v = term handled above; unreachable defended in callers *)
      else begin
        match Digraph.view_edge_weight fwd u nxt with
        | Some w -> walk nxt ((u, nxt, w) :: acc)
        | None -> List.rev acc
      end
    end
  in
  walk v []

(* Every vertex's terminal distances in ascending (distance, terminal
   index) order, as two flat arrays: row v is [v*k .. v*k+k-1].  This
   table is both the A_1 lookup and the level-2 scan's whole memory
   traffic, so it stays unboxed. *)
type terminal_table = { k : int; term_dist : float array; term_id : int array }

(* Insertion sort per row: terminal ti is inserted behind every entry
   that is not larger, so equal distances keep ascending indices — the
   order a sort of (dist, ti) pairs gives. *)
let build_table ~nv dist =
  Tmedb_obs.Span.with_ "dst.table" (fun () ->
      let k = Array.length dist in
      let term_dist = Array.make (nv * k) 0. and term_id = Array.make (nv * k) 0 in
      for v = 0 to nv - 1 do
        let base = v * k in
        for ti = 0 to k - 1 do
          let d = dist.(ti).(v) in
          let j = ref (base + ti) in
          while !j > base && Float.compare term_dist.(!j - 1) d > 0 do
            term_dist.(!j) <- term_dist.(!j - 1);
            term_id.(!j) <- term_id.(!j - 1);
            decr j
          done;
          term_dist.(!j) <- d;
          term_id.(!j) <- ti
        done
      done;
      { k; term_dist; term_id })

type candidate = { cand_edges : (int * int * float) list; cand_cost : float; cand_terms : int list }

(* A_1: shortest paths from v to the [need] nearest remaining
   terminals, read off the front of v's table row. *)
let a1_candidate fwd maps table ~need ~v ~remaining =
  let base = v * table.k in
  let chosen = ref [] and cnt = ref 0 in
  for i = base to base + table.k - 1 do
    let ti = table.term_id.(i) in
    if !cnt < need && remaining.(ti) && Float.is_finite table.term_dist.(i) then begin
      chosen := ti :: !chosen;
      incr cnt
    end
  done;
  if !chosen = [] then None
  else begin
    let chosen = List.rev !chosen in
    let set = Edge_set.create fwd.Digraph.nv in
    List.iter (fun ti -> Edge_set.add_list set (path_to_terminal fwd maps ~ti ~v)) chosen;
    Some { cand_edges = Edge_set.to_list set; cand_cost = Edge_set.cost set; cand_terms = chosen }
  end

(* Fast level-2 scan: for every intermediate vertex u and every count
   cnt <= need, the density of [path tree->u] + [A_1(cnt, u)] using
   plain distance sums; returns the best (u, cnt). *)
let scan_level2 ~dist_v ~remaining ~need ~table =
  Tmedb_obs.Counter.incr c_level2_scans;
  Tmedb_obs.Span.with_ "dst.level2_scan" (fun () ->
      let k = table.k and term_dist = table.term_dist and term_id = table.term_id in
      let best_density = ref Float.infinity in
      let best_u = ref (-1) and best_cnt = ref 0 in
      for u = 0 to Array.length dist_v - 1 do
        let du = dist_v.(u) in
        if Float.is_finite du then begin
          let sum = ref du in
          let cnt = ref 0 in
          let i = ref (u * k) in
          let stop = (u * k) + k in
          while !i < stop do
            let d = term_dist.(!i) in
            if not (Float.is_finite d) then i := stop
            else begin
              if remaining.(term_id.(!i)) then begin
                sum := !sum +. d;
                incr cnt;
                let density = !sum /. float_of_int !cnt in
                if density < !best_density then begin
                  best_density := density;
                  best_u := u;
                  best_cnt := !cnt
                end;
                if !cnt >= need then i := stop
              end;
              incr i
            end
          done
        end
      done;
      if !best_u < 0 then None else Some (!best_u, !best_cnt))

(* Tree-growing recursive greedy: each round connects the best-density
   (intermediate vertex, terminal count) candidate to the *current*
   partial tree (multi-source Dijkstra), not only to the call root —
   a strict improvement over connecting every pick at [v] since merged
   path segments are paid once and inform later picks. *)
let rec build_candidate fwd maps ~table ~level ~need ~v ~remaining ~rounds =
  if level <= 1 then a1_candidate fwd maps table ~need ~v ~remaining
  else begin
    let remaining = Array.copy remaining in
    let set = Edge_set.create fwd.Digraph.nv in
    let tree_members = Hashtbl.create 64 in
    Hashtbl.replace tree_members v ();
    let covered = ref [] in
    let still_needed = ref need in
    let progress = ref true in
    (* Distances from the growing tree, warm-restarted as members are
       added (distances only decrease). *)
    let tree_dist =
      Tmedb_obs.Span.with_ "dst.tree_dist" (fun () -> Dijkstra.run_multi_view fwd ~sources:[ v ])
    in
    while !still_needed > 0 && !progress do
      let dist_v = tree_dist.Dijkstra.dist and pred_v = tree_dist.Dijkstra.pred in
      let pick =
        if level = 2 then begin
          match scan_level2 ~dist_v ~remaining ~need:!still_needed ~table with
          | None -> None
          | Some (u, cnt) -> (
              match a1_candidate fwd maps table ~need:cnt ~v:u ~remaining with
              | None -> None
              | Some sub -> Some (u, sub))
        end
        else begin
          (* Exhaustive recursive scan, only for small instances. *)
          let best = ref None in
          Array.iteri
            (fun u du ->
              if Float.is_finite du then
              for cnt = 1 to !still_needed do
                match
                  build_candidate fwd maps ~table ~level:(level - 1) ~need:cnt ~v:u
                    ~remaining ~rounds
                with
                | None -> ()
                | Some sub ->
                    let density =
                      (du +. sub.cand_cost) /. float_of_int (List.length sub.cand_terms)
                    in
                    let better =
                      match !best with Some (d, _, _) -> density < d | None -> true
                    in
                    if better then best := Some (density, u, sub)
              done)
            dist_v;
          match !best with None -> None | Some (_, u, sub) -> Some (u, sub)
        end
      in
      match pick with
      | None -> progress := false
      | Some (u, sub) ->
          Tmedb_obs.Counter.incr c_expansions;
          incr rounds;
          if Tmedb_report.Provenance.enabled () then
            Tmedb_report.Provenance.emit
              (Tmedb_report.Provenance.Expansion
                 { vertex = u; terminals = List.length sub.cand_terms });
          (* Realize the connecting path tree -> u plus the subtree. *)
          let rec connect x acc =
            if pred_v.(x) < 0 then acc
            else begin
              let p = pred_v.(x) in
              match Digraph.view_edge_weight fwd p x with
              | Some w -> connect p ((p, x, w) :: acc)
              | None -> acc
            end
          in
          let fresh = ref [] in
          let note_edges es =
            Edge_set.add_list set es;
            List.iter
              (fun (a, b, _) ->
                if not (Hashtbl.mem tree_members a) then begin
                  Hashtbl.replace tree_members a ();
                  fresh := a :: !fresh
                end;
                if not (Hashtbl.mem tree_members b) then begin
                  Hashtbl.replace tree_members b ();
                  fresh := b :: !fresh
                end)
              es
          in
          note_edges (connect u []);
          note_edges sub.cand_edges;
          Tmedb_obs.Span.with_ "dst.refine" (fun () ->
              Dijkstra.refine_view fwd tree_dist ~new_sources:!fresh);
          List.iter
            (fun ti ->
              if remaining.(ti) then begin
                remaining.(ti) <- false;
                covered := ti :: !covered;
                decr still_needed
              end)
            sub.cand_terms
    done;
    if !covered = [] then None
    else Some { cand_edges = Edge_set.to_list set; cand_cost = Edge_set.cost set; cand_terms = !covered }
  end

let solve_body ~level ~rounds ~fwd ~rev ~root ~terminals =
  if level < 1 then invalid_arg "Dst.solve: level < 1";
  let nv = fwd.Digraph.nv in
  if root < 0 || root >= nv then invalid_arg "Dst.solve: root out of range";
  List.iter
    (fun t -> if t < 0 || t >= nv then invalid_arg "Dst.solve: terminal out of range")
    terminals;
  let terminals = List.filter (fun t -> t <> root) (List.sort_uniq Int.compare terminals) in
  let maps, dist = build_terminal_maps ~rev terminals in
  let k = Array.length maps.ids in
  (* Nothing reads the k distance rows after this: the greedy runs on
     the table, so they are garbage before the first round. *)
  let table = build_table ~nv dist in
  let remaining = Array.make k true in
  let result =
    build_candidate fwd maps ~table ~level ~need:k ~v:root ~remaining ~rounds
  in
  let covered_tis = match result with None -> [] | Some c -> c.cand_terms in
  let covered = List.sort Int.compare (List.map (fun ti -> maps.ids.(ti)) covered_tis) in
  (* Both lists are id-sorted: a linear merge instead of the former
     O(k²) List.mem filter. *)
  let rec diff_sorted xs ys =
    match (xs, ys) with
    | [], _ -> []
    | xs, [] -> xs
    | x :: xt, y :: yt ->
        if x < y then x :: diff_sorted xt ys
        else if x > y then diff_sorted xs yt
        else diff_sorted xt yt
  in
  let uncovered = diff_sorted terminals covered in
  let edges, cost =
    match result with None -> ([], 0.) | Some c -> (c.cand_edges, c.cand_cost)
  in
  { tree = { edges; cost; covered }; uncovered }

let solve_views ?(level = 2) ~fwd ~rev ~root ~terminals () =
  Tmedb_obs.Counter.incr c_solves;
  Tmedb_obs.Span.with_ "dst.solve"
    ~args:
      [
        ("vertices", string_of_int fwd.Digraph.nv);
        ("terminals", string_of_int (List.length terminals));
        ("level", string_of_int level);
      ]
    (fun () ->
      (* Expansion depth of this solve through a local counter (not a
         registry-counter delta): concurrent solves on other domains
         must not leak into this solve's observation. *)
      let rounds = ref 0 in
      let outcome =
        Tmedb_obs.Timer.time t_solve (fun () ->
            solve_body ~level ~rounds ~fwd ~rev ~root ~terminals)
      in
      Tmedb_obs.Histogram.observe h_expansion_rounds !rounds;
      outcome)

let solve ?level g ~root ~terminals =
  solve_views ?level ~fwd:(Digraph.view g)
    ~rev:(Digraph.view (Digraph.reverse g)) ~root ~terminals ()

let prune_within ~nv ~root tree =
  let sub = Digraph.of_edges ~n:nv tree.edges in
  (* Only the covered terminals' paths are extracted below. *)
  let r = Dijkstra.run sub ~src:root ~targets:tree.covered in
  let set = Edge_set.create nv in
  List.iter
    (fun term ->
      match Dijkstra.path_edges sub r ~src:root ~dst:term with
      | Some es -> Edge_set.add_list set es
      | None -> ())
    tree.covered;
  let edges = Edge_set.to_list set in
  { edges; cost = Edge_set.cost set; covered = tree.covered }

let prune g ~root tree = prune_within ~nv:(Digraph.n g) ~root tree
