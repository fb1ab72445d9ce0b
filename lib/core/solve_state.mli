(** Shared, deadline-independent solve state.

    The one-shot pipeline ({!Eedcb}, {!Spt}) restricts the graph to
    [\[span.lo, T\]] and rebuilds the DTS closure, the DCS marginals
    and the auxiliary-graph id layout from scratch for every deadline
    T.  A solve state does that work once, up to a fixed horizon (the
    largest deadline of a sweep), and serves any deadline [T <=
    horizon] out of the shared structures:

    - the streaming τ-closure ({!Tmedb_tveg.Dts.Stream}) generates
      closure points in ascending time order over the unrestricted
      graph; per deadline, the strict prefix below T plus the clipped
      endpoint is exactly the eager restricted-graph DTS;
    - DCS marginals are memoised per (node, point) on the full graph —
      valid for every deadline because a transmission finishing
      strictly before T sees the same neighbourhood in the restricted
      graph (ρ_τ is strict at interval ends), and one finishing at or
      past T has no levels;
    - per-deadline auxiliary-graph layouts ({!layout}) are assembled by
      offset arithmetic over cached per-block level counts, without
      re-enumerating any DCS block.

    Over a state, a planner's auxiliary graph is always the lazy one,
    created from the deadline's layout ({!lazy_graph}).

    A state is immutable once created, so concurrent per-deadline
    solves may share it freely (the Pareto sweep fans points out over
    the pool).

    Caveat (measure-zero): a node whose earliest source arrival is
    {e exactly} T differs from the one-shot build at that single
    deadline — see {!Tmedb_tveg.Dts.Stream}.  Sweep deadlines are
    user-chosen grid values, not arrival times, so in practice the
    shared and one-shot pipelines agree bit for bit; the equality is
    asserted over whole outcomes in the test suite and `bench
    pareto`. *)

type t
(** Immutable shared state for one (graph, phy, channel, source,
    horizon, cap) configuration. *)

type layout = {
  base : int array;  (** Wait-vertex base id per node. *)
  level_off : int array;
      (** Per-block level-id prefix, length total_wait + 1. *)
  edge_bound : int;  (** Eager build's edge-count upper bound. *)
}
(** Auxiliary-graph id layout of one deadline, as consumed by
    {!Aux_graph.Lazy.create_with} — identical to the counting pass of
    {!Aux_graph.Lazy.create} on the restricted instance. *)

val create : ?cap_per_node:int -> Problem.t -> t
(** Build the shared state with horizon [problem.deadline]: advance
    the closure stream to the horizon and memoise the DCS marginals of
    every generated point (one [dcs.queries] bump per point — the same
    work a single one-shot solve at the horizon performs).
    [cap_per_node] is the streaming closure's per-node point cap and
    must match the per-solve cap of the contexts that reuse the state
    (see {!check_compatible}). *)

val problem : t -> Problem.t
(** The instance the state was created from (deadline = horizon). *)

val horizon : t -> float
(** Largest deadline the state can serve. *)

val cap_per_node : t -> int option
(** The cap the state was created with ([None]: the DTS default). *)

val stream_truncated : t -> bool
(** Whether the streaming closure hit [cap_per_node] (capped point
    sets may differ from the one-shot build's; both stay valid). *)

val check_compatible : t -> Problem.t -> cap_per_node:int option -> unit
(** Validate that a per-deadline problem can be served: it must share
    the state's graph {e value} (physical equality — the state's
    caches are keyed by its contact tables), physical layer, channel,
    source and cap, with a deadline at or before the horizon.
    @raise Invalid_argument otherwise, naming the mismatch. *)

val dts_at : t -> deadline:float -> Tmedb_tveg.Dts.t
(** The deadline's DTS view out of the shared stream (equal to the
    one-shot [Problem.dts] of the restricted instance).
    @raise Invalid_argument past the horizon. *)

val marginals :
  t -> deadline:float -> node:int -> time:float -> Tmedb_tveg.Dcs.marginal list
(** Memoised DCS marginals provider for one deadline: blocks whose
    transmission finishes at or past the deadline answer [] (they have
    no levels in the restricted instance); all others are served from
    the shared memo without touching [dcs.queries].  Partial
    application at [~deadline] yields the provider
    {!Aux_graph.Lazy.create_with} consumes. *)

val layout : t -> Tmedb_tveg.Dts.t -> layout
(** The deadline's auxiliary-graph layout, from the DTS view returned
    by {!dts_at} — pure offset arithmetic over the cached per-block
    level counts. *)

(** {2 Per-solve prologue}

    The steps every planner that honours a solve state ({!Eedcb},
    {!Spt}) runs before touching the auxiliary graph. *)

type prologue = {
  problem : Problem.t;
      (** The instance with its graph clipped to
          [\[span.lo, deadline\]]. *)
  dts : Tmedb_tveg.Dts.t;  (** The deadline's DTS. *)
  state : t option;  (** The shared state the DTS came from, if any. *)
}

val prologue : t option -> cap_per_node:int option -> span:string -> Problem.t -> prologue
(** Validate the problem against the state ({!check_compatible}),
    clip its graph to the deadline, and take the DTS from the state
    ({!dts_at}) or, without one, from [Problem.dts ?cap_per_node].
    The DTS step runs inside a span named [span].
    @raise Invalid_argument when the state is incompatible. *)

val lazy_graph : prologue -> Aux_graph.Lazy.t
(** The lazy auxiliary graph of the prologue's instance: from the
    state's {!layout} and {!marginals} when there is a state, by
    {!Aux_graph.Lazy.create}'s counting pass otherwise.  Vertex ids,
    edges and adjacency orders are the same either way. *)
