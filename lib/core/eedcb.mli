(** EEDCB — energy-efficient delay-constrained broadcast (paper Section
    VI-A): DTS → auxiliary graph → approximate directed Steiner tree →
    schedule.

    Under a static design channel this is the paper's TMEDB-S
    algorithm with approximation ratio O(N^ε); under a fading design
    channel the same pipeline computes the FR-EEDCB broadcast backbone
    (relays and times) using single-hop ε-costs as edge weights.

    The outcome carries a {!Planner.Outcome.Steiner_tree} artifact:
    the pruned tree (auxiliary-graph vertex ids) and the pipeline's
    shape (auxiliary-graph size, DTS points). *)

val info : Planner.info
(** Registry metadata: ["EEDCB"], static channel, Section VI-A. *)

val plan : Planner.Ctx.t -> Problem.t -> Planner.Outcome.t
(** The pipeline under the context's [steiner_level] (the paper's
    ε = 1/i knob) and [cap_per_node].  A one-shot solve drains the
    whole auxiliary graph, so it builds it eagerly
    ({!Aux_graph.build}); with [ctx.solve_state] the graph is expanded
    lazily from the state's layout ({!Solve_state.lazy_graph}).  Both
    expose the same ids and adjacency orders, so the outcome is the
    same either way. *)

val planner : Planner.t
(** {!info} and {!plan}, packaged for {!Registry}. *)
