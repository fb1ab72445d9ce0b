open Tmedb_steiner

(* Telemetry: the whole pipeline is timed, and each stage gets a trace
   span so a --trace file shows where a run's time goes. *)
let c_runs = Tmedb_obs.Counter.make "eedcb.runs"
let t_run = Tmedb_obs.Timer.make "eedcb.run"

(* The auxiliary graph as the Steiner tail sees it: both directions as
   successor views, whatever the representation behind them. *)
type graph = {
  fwd : Digraph.view;
  rev : Digraph.view;
  root : int;
  terminals : int list;
  shape : string;  (* provenance detail of the "aux_graph" stage *)
  edges : int;  (* the artifact's [aux_edges] *)
  extract : Dst.tree -> Schedule.t;
  describe : int -> Aux_graph.vertex;
}

(* A one-shot solve drains the whole universe, where a CSR scan beats
   per-edge generation: build eagerly.  Over a shared solve state the
   id layout and DCS marginals are already paid for, so expand lazily
   from them.  Both expose the same ids and adjacency orders. *)
let aux_graph (pre : Solve_state.prologue) =
  match pre.Solve_state.state with
  | None ->
      let aux = Aux_graph.build pre.Solve_state.problem pre.Solve_state.dts in
      let g = aux.Aux_graph.graph in
      {
        fwd = Digraph.view g;
        rev = Digraph.view (Digraph.reverse g);
        root = aux.Aux_graph.source_vertex;
        terminals = aux.Aux_graph.terminals;
        shape = Printf.sprintf "%d vertices, %d edges" (Digraph.n g) (Digraph.m g);
        edges = Digraph.m g;
        extract = Aux_graph.extract_schedule aux;
        describe = Array.get aux.Aux_graph.vertex;
      }
  | Some _ ->
      let aux = Tmedb_obs.Span.with_ "eedcb.lazy_graph" (fun () -> Solve_state.lazy_graph pre) in
      let nv = Aux_graph.Lazy.num_vertices aux and bound = Aux_graph.Lazy.edge_bound aux in
      {
        fwd = Aux_graph.Lazy.view aux;
        rev = Aux_graph.Lazy.rev_view aux;
        root = Aux_graph.Lazy.source_vertex aux;
        terminals = Aux_graph.Lazy.terminals aux;
        shape = Printf.sprintf "%d vertices, %d edge bound (lazy)" nv bound;
        edges = bound;
        extract = Aux_graph.Lazy.extract_schedule aux;
        describe = Aux_graph.Lazy.describe aux;
      }

let plan (ctx : Planner.Ctx.t) problem =
  Tmedb_obs.Counter.incr c_runs;
  let t0 = Tmedb_obs.Timer.start t_run in
  Fun.protect ~finally:(fun () -> Tmedb_obs.Timer.stop t_run t0) @@ fun () ->
  Tmedb_obs.Span.with_ "eedcb.run" @@ fun () ->
  let stage name detail =
    if Tmedb_report.Provenance.enabled () then
      Tmedb_report.Provenance.emit (Tmedb_report.Provenance.Stage { stage = name; detail })
  in
  let pre =
    Solve_state.prologue ctx.Planner.Ctx.solve_state ~cap_per_node:ctx.Planner.Ctx.cap_per_node
      ~span:"eedcb.dts" problem
  in
  let problem = pre.Solve_state.problem and dts = pre.Solve_state.dts in
  stage "dts" (Printf.sprintf "%d points" (Tmedb_tveg.Dts.total_points dts));
  let aux = aux_graph pre in
  stage "aux_graph" aux.shape;
  let outcome =
    Dst.solve_views ~level:ctx.Planner.Ctx.steiner_level ~fwd:aux.fwd ~rev:aux.rev
      ~root:aux.root ~terminals:aux.terminals ()
  in
  stage "dst"
    (Printf.sprintf "cost %.17g, %d uncovered" outcome.Dst.tree.Dst.cost
       (List.length outcome.Dst.uncovered));
  let pruned =
    Tmedb_obs.Span.with_ "eedcb.prune" (fun () ->
        Dst.prune_within ~nv:aux.fwd.Digraph.nv ~root:aux.root outcome.Dst.tree)
  in
  stage "prune" (Printf.sprintf "cost %.17g" pruned.Dst.cost);
  let schedule = aux.extract pruned in
  let report =
    Tmedb_obs.Span.with_ "eedcb.feasibility" (fun () -> Feasibility.check problem schedule)
  in
  let node_of term =
    match aux.describe term with Aux_graph.Wait { node; _ } | Aux_graph.Level { node; _ } -> node
  in
  Planner.Outcome.make ~schedule ~report
    ~unreached:(List.map node_of outcome.Dst.uncovered)
    ~artifacts:
      [
        Planner.Outcome.Steiner_tree
          {
            tree = pruned;
            aux_vertices = aux.fwd.Digraph.nv;
            aux_edges = aux.edges;
            dts_points = Tmedb_tveg.Dts.total_points dts;
          };
      ]
    ()

let info =
  {
    Planner.name = "EEDCB";
    channel = `Static;
    section = "VI-A";
    summary = "DTS -> auxiliary graph -> directed Steiner tree -> schedule";
  }

let planner = { Planner.info; plan }
