(** Mutable binary min-heap of [int] values keyed by float priorities.

    Used by Dijkstra on the auxiliary graph, the temporal
    earliest-arrival scans ({!Tmedb_tveg.Tveg.earliest_arrival},
    {!Tmedb_tvg.Journey.earliest_arrival}) and the static-tree replay
    of [Tmedb.Static_bip].  Priorities and values live in two unboxed
    arrays, so {!push}, {!min_prio}, {!min_value} and {!drop_min}
    allocate nothing except when the arrays grow.

    Equal priorities are not served first-in first-out.  The pop
    order is a deterministic function of the push/drop sequence: a
    pushed entry rises past its parent only if strictly smaller; a
    drop moves the last entry to the root, which then sinks to its
    left child if that is strictly smaller, or to its right child if
    that is strictly smaller still.  Results that depend on tie order
    (Dijkstra's predecessors on 0-weight edges, say) are pinned to
    these rules.

    Stale-entry (lazy-deletion) usage is the caller's concern: [push]
    never updates an existing key. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> float -> int -> unit
(** [push q p v] inserts value [v] with priority [p]. *)

val min_prio : t -> float
(** Priority of the minimum entry.  @raise Invalid_argument when empty. *)

val min_value : t -> int
(** Value of the minimum entry.  @raise Invalid_argument when empty. *)

val drop_min : t -> unit
(** Remove the minimum entry.  @raise Invalid_argument when empty. *)
