(** Shortest-path-tree planner over the auxiliary graph: one forward
    targeted Dijkstra from the source vertex, union of the predecessor
    paths to every terminal.

    Energy-wise this is the recursion-level-0 corner of the Steiner
    spectrum — each node reached by its individually cheapest chain,
    sharing only what the paths overlap on — but the whole plan costs
    a single scan.  The scan always runs on the lazily expanded graph
    ({!Aux_graph.Lazy}), so only the frontier below the last
    terminal's settling distance is ever built, which is what makes N
    in the thousands tractable (`bench nscale`, docs/SCALING.md). *)

val info : Planner.info
(** Registry metadata (name "SPT", static channel). *)

val plan : Planner.Ctx.t -> Problem.t -> Planner.Outcome.t
(** Respects [ctx.cap_per_node] and [ctx.solve_state]: the lazy graph
    comes from {!Aux_graph.Lazy.create} one-shot, or from the state's
    layout ({!Solve_state.lazy_graph}); both give the same outcome. *)

val planner : Planner.t
(** The planner record, listed in {!Registry.extras}. *)
