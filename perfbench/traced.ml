(* Traced run: every operation is executed twice on the same instance.
   First untraced, through the same public entry point as the
   end-to-end run (the equivalence reference and the overhead base).
   Then decomposed: the benchmark drives each layer's public functions
   itself, in the order the planner does, with a span around every
   call, wrapped successor views, and the program's telemetry registry
   switched on for its work counters.  The decomposed output must equal
   the reference exactly, or the run fails.

   Attribution rules.  A layer's [*_s] and [*_words] metrics are the
   self time and self minor words of the spans opened around that
   layer's calls.  Where a layer only runs inside another layer's call
   (Dijkstra inside [Dst.solve_views], the DTS closure inside
   [Greedy.plan] and [Solve_state.create]), its time comes from the
   program's own registry timer and is also contained in the enclosing
   layer's self time.  Metrics of a layer a workload never calls are 0. *)

open Tmedb
open Tmedb_steiner
open Tmedb_prelude
open Pb_common

module S = Pb_spans

(* Per-run sums, keyed by metric source. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let get key = Option.value (Hashtbl.find_opt sums key) ~default:0.
let add key v = Hashtbl.replace sums key (get key +. v)

let restrict (problem : Problem.t) =
  let span = Tmedb_tveg.Tveg.span problem.Problem.graph in
  let sub = Interval.make ~lo:span.Interval.lo ~hi:problem.Problem.deadline in
  { problem with Problem.graph = Tmedb_tveg.Tveg.restrict problem.Problem.graph ~span:sub }

(* A view that counts successor enumerations. *)
let counted key (v : Digraph.view) =
  { v with Digraph.iter_succ = (fun u f -> add key 1.; v.Digraph.iter_succ u f) }

(* A view that times successor generation alone: successors are first
   buffered, timed, then handed to the traversal's callback, so the
   traversal's own work stays outside the measured interval. *)
let timed (v : Digraph.view) acc =
  let vs = ref (Array.make 256 0) and ws = ref (Array.make 256 0.) and busy = ref false in
  let iter_succ u f =
    if !busy then v.Digraph.iter_succ u f
    else begin
      busy := true;
      let n = ref 0 in
      let t0 = now () in
      v.Digraph.iter_succ u (fun x w ->
          if !n = Array.length !vs then begin
            vs := Array.append !vs (Array.make !n 0);
            ws := Array.append !ws (Array.make !n 0.)
          end;
          !vs.(!n) <- x;
          !ws.(!n) <- w;
          incr n);
      acc := !acc +. (now () -. t0);
      Fun.protect
        ~finally:(fun () -> busy := false)
        (fun () ->
          for i = 0 to !n - 1 do
            f !vs.(i) !ws.(i)
          done)
    end
  in
  { v with Digraph.iter_succ }

let node_of = function
  | Aux_graph.Wait { node; _ } | Aux_graph.Level { node; _ } -> node

(* eedcb-sweep, decomposed as Eedcb.plan's one-shot path. *)
let eedcb_op (inst : Pb_inputs.Eedcb_sweep.inst) =
  let ctx = Pb_inputs.paper_ctx () in
  S.with_ "op" @@ fun () ->
  let problem, dts =
    S.with_ "dts" (fun () ->
        let problem = restrict inst.Pb_inputs.Eedcb_sweep.problem in
        (problem, Problem.dts ?cap_per_node:ctx.Planner.Ctx.cap_per_node problem))
  in
  let aux = S.with_ "aux_graph" (fun () -> Aux_graph.build problem dts) in
  let g = aux.Aux_graph.graph and root = aux.Aux_graph.source_vertex in
  add "x:aux_universe" (float_of_int (Digraph.n g));
  add "x:aux_materialized" (float_of_int (Digraph.n g));
  add "x:aux_edges" (float_of_int (Digraph.m g));
  let rev = S.with_ "dst.reverse" (fun () -> Digraph.reverse g) in
  let outcome =
    S.with_ "dst" (fun () ->
        Dst.solve_views ~level:ctx.Planner.Ctx.steiner_level
          ~fwd:(counted "x:fwd_calls" (Digraph.view g))
          ~rev:(counted "x:rev_calls" (Digraph.view rev))
          ~root ~terminals:aux.Aux_graph.terminals ())
  in
  let pruned = S.with_ "dst.prune" (fun () -> Dst.prune g ~root outcome.Dst.tree) in
  let schedule = S.with_ "aux_graph.extract" (fun () -> Aux_graph.extract_schedule aux pruned) in
  let report = S.with_ "feasibility" (fun () -> Feasibility.check problem schedule) in
  let unreached = List.map (fun t -> node_of aux.Aux_graph.vertex.(t)) outcome.Dst.uncovered in
  (schedule, report.Feasibility.feasible, unreached)

(* fading-greed, decomposed as Fr.plan_with `Greedy plus the replay. *)
let fading_op (inst : Pb_inputs.Fading_greed.inst) =
  let ctx = Pb_inputs.paper_ctx () in
  let problem = inst.Pb_inputs.Fading_greed.problem in
  S.with_ "op" @@ fun () ->
  let stage1 = S.with_ "greedy" (fun () -> Greedy.plan ctx problem) in
  let schedule, _ =
    S.with_ "fr.allocate" (fun () -> Fr.allocate problem stage1.Planner.Outcome.schedule)
  in
  let report = S.with_ "feasibility" (fun () -> Feasibility.check problem schedule) in
  let sim = S.with_ "simulate" (fun () -> Pb_inputs.Fading_greed.simulate inst schedule) in
  (schedule, report.Feasibility.feasible, stage1.Planner.Outcome.unreached, sim)

(* One grid point of pareto-scale, decomposed as Spt.plan over a shared
   solve state; runs on a pool worker. *)
let pareto_point ~parent st (base : Problem.t) deadline =
  S.with_ ~parent "point" @@ fun () ->
  let p = { base with Problem.deadline } in
  let problem = restrict p in
  let dts, layout =
    S.with_ "solve_state.point" (fun () ->
        let dts = Solve_state.dts_at st ~deadline in
        (dts, Solve_state.layout st dts))
  in
  let aux =
    S.with_ "aux_graph" (fun () ->
        Aux_graph.Lazy.create_with
          ~marginals:(Solve_state.marginals st ~deadline)
          ~base:layout.Solve_state.base ~level_off:layout.Solve_state.level_off
          ~edge_bound:layout.Solve_state.edge_bound problem dts)
  in
  let fwd = Aux_graph.Lazy.view aux in
  let root = Aux_graph.Lazy.source_vertex aux and terminals = Aux_graph.Lazy.terminals aux in
  let succ_s = ref 0. in
  let res =
    S.with_ "dijkstra" (fun () -> Dijkstra.run_view ~targets:terminals (timed fwd succ_s) ~src:root)
  in
  (* The shortest-path tree: union of predecessor chains, as Spt.plan. *)
  let reached, unreached_terms =
    List.partition (fun t -> res.Dijkstra.dist.(t) < Float.infinity) terminals
  in
  let in_tree = Bitset.create (Aux_graph.Lazy.num_vertices aux) in
  Bitset.set in_tree root;
  let edge_tbl = Hashtbl.create 64 in
  List.iter
    (fun term ->
      let v = ref term in
      while not (Bitset.mem in_tree !v) do
        Bitset.set in_tree !v;
        let u = res.Dijkstra.pred.(!v) in
        let w =
          match Digraph.view_edge_weight fwd u !v with
          | Some w -> w
          | None -> failwith "predecessor edge missing from view"
        in
        Hashtbl.replace edge_tbl (u, !v) w;
        v := u
      done)
    reached;
  let edges =
    Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) edge_tbl []
    |> List.sort (fun (u1, v1, _) (u2, v2, _) ->
           let c = Int.compare u1 u2 in
           if c <> 0 then c else Int.compare v1 v2)
  in
  let tree = { Dst.edges; cost = Dst.tree_cost edges; covered = List.sort Int.compare reached } in
  let schedule = S.with_ "aux_graph.extract" (fun () -> Aux_graph.Lazy.extract_schedule aux tree) in
  let report = S.with_ "feasibility" (fun () -> Feasibility.check problem schedule) in
  let point =
    {
      Pareto.deadline;
      energy = Metrics.normalized_energy p schedule;
      transmissions = Schedule.num_transmissions schedule;
      feasible = report.Feasibility.feasible;
      unreached = List.length unreached_terms;
      dominated = false;
    }
  in
  let stats =
    ( !succ_s,
      Aux_graph.Lazy.nodes_materialized aux,
      Aux_graph.Lazy.num_vertices aux,
      Aux_graph.Lazy.edges_materialized aux )
  in
  (point, (p, schedule), stats)

(* pareto-scale, decomposed as Pareto.sweep. *)
let pareto_op pool (inst : Pb_inputs.Pareto_scale.inst) =
  S.with_ "op" @@ fun () ->
  let grid = Array.of_list inst.Pb_inputs.Pareto_scale.grid in
  let horizon = grid.(Array.length grid - 1) in
  let base = { inst.Pb_inputs.Pareto_scale.problem with Problem.deadline = horizon } in
  let st = S.with_ "solve_state.create" (fun () -> Solve_state.create base) in
  let results =
    S.with_ "pool.map" (fun () ->
        let parent = S.current () in
        Pool.map (Some pool) (fun d -> pareto_point ~parent st base d) grid)
  in
  Array.iter
    (fun (_, _, (succ, mat, universe, edges)) ->
      add "x:succ_s" succ;
      add "x:aux_materialized" (float_of_int mat);
      add "x:aux_universe" (float_of_int universe);
      add "x:aux_edges" (float_of_int edges))
    results;
  let points = Pareto.mark_dominated (Array.to_list (Array.map (fun (p, _, _) -> p) results)) in
  (points, Array.to_list (Array.map (fun (_, s, _) -> s) results))

let point_equal (a : Pareto.point) (b : Pareto.point) =
  Float.equal a.Pareto.deadline b.Pareto.deadline
  && Float.equal a.Pareto.energy b.Pareto.energy
  && a.Pareto.transmissions = b.Pareto.transmissions
  && Bool.equal a.Pareto.feasible b.Pareto.feasible
  && a.Pareto.unreached = b.Pareto.unreached
  && Bool.equal a.Pareto.dominated b.Pareto.dominated

let same_outcome (o : Planner.Outcome.t) (schedule, feasible, unreached) =
  Schedule.equal o.Planner.Outcome.schedule schedule
  && Bool.equal o.Planner.Outcome.report.Feasibility.feasible feasible
  && o.Planner.Outcome.unreached = unreached

(* A workload's traced driver: [step k] runs instance [k] untraced and
   then decomposed, and returns both wall times and every equivalence
   or checker violation found. *)
type traced = {
  count : int;
  domains : int;
  step : int -> float * float * string list;
      (** Untraced seconds, traced seconds, violations. *)
  teardown : unit -> unit;
}

let timed_call f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Registry off for the reference, on (freshly reset) for the
   decomposition; the counter and timer deltas are summed. *)
let with_registry f =
  Tmedb_obs.reset ();
  Tmedb_obs.set_enabled true;
  let gc0 = Gc.quick_stat () in
  let r = Fun.protect ~finally:(fun () -> Tmedb_obs.set_enabled false) (fun () -> timed_call f) in
  let gc1 = Gc.quick_stat () in
  add "gc:minor" (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
  add "gc:major" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  let snap = Tmedb_obs.snapshot () in
  List.iter (fun (name, v) -> add ("counter:" ^ name) (float_of_int v)) snap.Tmedb_obs.counters;
  List.iter
    (fun t -> add ("timer:" ^ t.Tmedb_obs.timer_name) t.Tmedb_obs.seconds)
    snap.Tmedb_obs.timers;
  r

let static_check ~require_all problem schedule =
  (Pb_check.static_schedule ~require_all problem schedule).Pb_check.violations

let eedcb_sweep ~seed =
  let planner = Pb_inputs.planner "EEDCB" in
  let count = Pb_inputs.Eedcb_sweep.count in
  let insts = Pb_inputs.Eedcb_sweep.instances ~seed in
  {
    count;
    domains = 1;
    teardown = ignore;
    step =
      (fun k ->
        let inst = insts.(k) in
        let reference, untraced = timed_call (fun () -> Pb_inputs.Eedcb_sweep.run planner inst) in
        let ((schedule, _, unreached) as d), traced = with_registry (fun () -> eedcb_op inst) in
        let gate = if same_outcome reference d then [] else [ "decomposed EEDCB differs from Planner.run" ] in
        let unreached = if unreached = [] then [] else [ "unreached nodes on a completable instance" ] in
        (untraced, traced,
         gate @ unreached @ static_check ~require_all:true inst.Pb_inputs.Eedcb_sweep.problem schedule));
  }

let fading_greed ~seed =
  let planner = Pb_inputs.planner "FR-GREED" in
  let count = Pb_inputs.Fading_greed.count in
  let insts = Pb_inputs.Fading_greed.instances ~seed in
  {
    count;
    domains = 1;
    teardown = ignore;
    step =
      (fun k ->
        let inst = insts.(k) in
        let (reference, ref_sim), untraced = timed_call (fun () -> Pb_inputs.Fading_greed.run planner inst) in
        let (schedule, feasible, unreached, sim), traced = with_registry (fun () -> fading_op inst) in
        let gate =
          if same_outcome reference (schedule, feasible, unreached)
             && Float.equal ref_sim.Simulate.delivery_ratio sim.Simulate.delivery_ratio
          then []
          else [ "decomposed FR-GREED differs from Planner.run" ]
        in
        let verdict =
          Pb_check.fading_schedule ~unreached inst.Pb_inputs.Fading_greed.problem schedule
        in
        (untraced, traced, gate @ verdict.Pb_check.violations));
  }

let pareto_scale ~seed =
  let planner = Pb_inputs.planner "SPT" in
  let count = Pb_inputs.Pareto_scale.count in
  let domains = Pb_inputs.Pareto_scale.traced_domains in
  let insts = Pb_inputs.Pareto_scale.instances ~seed in
  let pool = Pool.create ~num_domains:domains () in
  {
    count;
    domains;
    teardown = (fun () -> Pool.shutdown pool);
    step =
      (fun k ->
        let inst = insts.(k) in
        let reference, untraced = timed_call (fun () -> Pb_inputs.Pareto_scale.run ~pool planner inst) in
        let (points, schedules), traced = with_registry (fun () -> pareto_op pool inst) in
        let gate =
          if List.length points = List.length reference.Pareto.points
             && List.for_all2 point_equal points reference.Pareto.points
          then []
          else [ "decomposed sweep differs from Pareto.sweep" ]
        in
        (* Replay every point's schedule; incomplete points are allowed
           (and must be marked dominated, which the point check covers). *)
        let replay =
          List.concat
            (List.map2
               (fun (pt : Pareto.point) (p, schedule) ->
                 let v = Pb_check.static_schedule ~require_all:false p schedule in
                 let missing = inst.Pb_inputs.Pareto_scale.n - v.Pb_check.informed in
                 if missing <> pt.Pareto.unreached then
                   Printf.sprintf "point %g: replay leaves %d nodes uninformed, sweep says %d"
                     pt.Pareto.deadline missing pt.Pareto.unreached
                   :: v.Pb_check.violations
                 else v.Pb_check.violations)
               points schedules)
        in
        (untraced, traced,
         gate @ replay
         @ Pb_check.pareto_points ~n:inst.Pb_inputs.Pareto_scale.n
             ~grid:inst.Pb_inputs.Pareto_scale.grid inst.Pb_inputs.Pareto_scale.problem reference));
  }

(* Spans that are layers; "op", "pool.map" and "point" are structure. *)
let is_layer name = not (List.mem name [ "op"; "pool.map"; "point" ])

let fold_spans spans =
  let costs = S.self_costs spans in
  List.iter
    (fun ((s : S.span), self, words) ->
      if is_layer s.S.name then begin
        add ("self:" ^ s.S.name) self;
        add ("words:" ^ s.S.name) words
      end)
    costs;
  List.iter
    (fun (root : S.span) ->
      if root.S.name = "op" then begin
        let layer_intervals =
          List.filter_map
            (fun (s : S.span) -> if is_layer s.S.name then Some (s.S.start, s.S.stop) else None)
            spans
        in
        add "x:op_wall" (root.S.stop -. root.S.start);
        add "x:residual" (root.S.stop -. root.S.start -. S.covered layer_intervals)
      end;
      if root.S.name = "pool.map" then begin
        add "x:pool_wall" (root.S.stop -. root.S.start);
        let by_domain = Hashtbl.create 4 in
        List.iter
          (fun (s : S.span) ->
            if s.S.name = "point" then Hashtbl.add by_domain s.S.domain (s.S.start, s.S.stop))
          spans;
        List.iter
          (fun d -> add "x:pool_busy" (S.covered (Hashtbl.find_all by_domain d)))
          (List.sort_uniq Int.compare (Hashtbl.fold (fun d _ acc -> d :: acc) by_domain []))
      end)
    spans

(* The per-layer metrics: name, unit, value.  Times, words and counts
   are means per operation; fractions are ratios of run totals. *)
let metrics ~ops ~domains =
  let per_op v = v /. float_of_int ops in
  let ratio a b = if b > 0. then a /. b else 0. in
  let self name = get ("self:" ^ name) in
  let counter name = get ("counter:" ^ name) in
  let timer name = get ("timer:" ^ name) in
  let has_span name = Hashtbl.mem sums ("self:" ^ name) in
  let succ_s = get "x:succ_s" in
  let dijkstra_s =
    if has_span "dijkstra" then self "dijkstra" -. succ_s else timer "dijkstra.run"
  in
  let dts_s =
    if has_span "dts" then self "dts" else timer "dts.compute" +. timer "dts.stream_advance"
  in
  let pool_capacity = float_of_int domains *. get "x:pool_wall" in
  [
    ("dst.self_s", per_op (self "dst"), "s");
    ("dst.minor_words", per_op (get "words:dst"), "words");
    ("dst.reverse_s", per_op (self "dst.reverse"), "s");
    ("dst.fwd_succ_calls", per_op (get "x:fwd_calls"), "count");
    ("dst.rev_succ_calls", per_op (get "x:rev_calls"), "count");
    ("dst.expansions", per_op (counter "dst.expansions"), "count");
    ("dst.level2_scans", per_op (counter "dst.level2_scans"), "count");
    ("dst.prune_s", per_op (self "dst.prune"), "s");
    ("dijkstra.runs", per_op (counter "dijkstra.runs"), "count");
    ("dijkstra.settled", per_op (counter "dijkstra.settled"), "count");
    ("dijkstra.self_s", per_op dijkstra_s, "s");
    ("aux_graph.self_s", per_op (self "aux_graph" +. succ_s), "s");
    ("aux_graph.minor_words", per_op (get "words:aux_graph"), "words");
    ("aux_graph.vertices", per_op (get "x:aux_universe"), "count");
    ("aux_graph.edges", per_op (get "x:aux_edges"), "count");
    ("aux_graph.nodes_materialized", per_op (get "x:aux_materialized"), "count");
    ("aux_graph.materialized_frac", ratio (get "x:aux_materialized") (get "x:aux_universe"), "frac");
    ("aux_graph.succ_s", per_op succ_s, "s");
    ("aux_graph.extract_s", per_op (self "aux_graph.extract"), "s");
    ("dts.self_s", per_op dts_s, "s");
    ("dts.minor_words", per_op (get "words:dts"), "words");
    ("dts.points", per_op (counter "dts.points" +. counter "dts.stream_points"), "count");
    ("dcs.queries", per_op (counter "dcs.queries"), "count");
    ("solve_state.create_s", per_op (self "solve_state.create"), "s");
    ("solve_state.point_s", per_op (self "solve_state.point"), "s");
    ("greedy.self_s", per_op (self "greedy"), "s");
    ("greedy.minor_words", per_op (get "words:greedy"), "words");
    ("fr.allocate_s", per_op (self "fr.allocate"), "s");
    ("fr.minor_words", per_op (get "words:fr.allocate"), "words");
    ("nlp.solves", per_op (counter "nlp.solves"), "count");
    ("nlp.projgrad_iterations", per_op (counter "nlp.projgrad_iterations"), "count");
    ("simulate.self_s", per_op (self "simulate"), "s");
    ("simulate.trials", per_op (counter "simulate.trials"), "count");
    ("feasibility.self_s", per_op (self "feasibility"), "s");
    ("pool.tasks", per_op (counter "pool.tasks"), "count");
    ("pool.steals", per_op (counter "pool.steals"), "count");
    ("pool.busy_frac", ratio (get "x:pool_busy") pool_capacity, "frac");
    ("pool.idle_s", per_op (pool_capacity -. get "x:pool_busy"), "s");
    ("planner.residual_frac", ratio (get "x:residual") (get "x:op_wall"), "frac");
    ("gc.minor_collections", per_op (get "gc:minor"), "count");
    ("gc.major_collections", per_op (get "gc:major"), "count");
    ("trace.overhead_frac", ratio (get "x:traced" -. get "x:untraced") (get "x:untraced"), "frac");
  ]

let print_table workload ~ops metrics =
  let op_s = get "x:op_wall" /. float_of_int ops in
  Printf.printf "per-layer table: %s, %d traced ops, mean traced op %.4f s, mean untraced op %.4f s\n"
    workload ops op_s
    (get "x:untraced" /. float_of_int ops);
  Printf.printf "  %-30s %16s %-6s %s\n" "metric" "value" "unit" "share of op";
  List.iter
    (fun (name, value, unit) ->
      let share =
        if unit = "s" && op_s > 0. then Printf.sprintf "%6.1f%%" (100. *. value /. op_s) else ""
      in
      Printf.printf "  %-30s %16.6g %-6s %s\n" name value unit share)
    metrics

let () =
  let args = parse_args () in
  let make =
    match args.workload with
    | "eedcb-sweep" -> eedcb_sweep
    | "fading-greed" -> fading_greed
    | "pareto-scale" -> pareto_scale
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  let t = make ~seed:args.seed in
  (* At least five ops, so every size class of a workload appears. *)
  let min_ops = min t.count 5 in
  let ops = ref 0 and failed = ref 0 in
  let start = now () in
  while not (now () -. start >= args.seconds && !ops >= min_ops) do
    let k = !ops mod t.count in
    let untraced, traced, violations =
      try t.step k with e -> (0., 0., [ "exception: " ^ Printexc.to_string e ])
    in
    fold_spans (S.take ());
    add "x:untraced" untraced;
    add "x:traced" traced;
    if violations <> [] then begin
      incr failed;
      Printf.eprintf "%s: instance %d failed: %s\n%!" args.workload k (String.concat "; " violations)
    end;
    incr ops
  done;
  t.teardown ();
  let metrics = metrics ~ops:!ops ~domains:t.domains in
  print_table args.workload ~ops:!ops metrics;
  let num i = Json.Num (float_of_int i) in
  print_stamp args ~mode:"traced" ~domains:t.domains
    ~fields:[ ("instances", num t.count); ("ops", num !ops); ("failed", num !failed) ];
  print_result ~correct:(!failed = 0) ~attempted:!ops ~failed:!failed metrics;
  exit (if !failed = 0 then 0 else 1)
