(** Rooted out-arborescences: the test oracle that checks pruned
    Steiner trees are trees spanning their covered terminals.

    An arborescence over vertices [0..n-1] stores at most one parent
    per vertex; every member vertex must reach the root through parent
    links without cycles. *)

type t

val of_edges : n:int -> root:int -> (int * int * float) list -> (t, string) result
(** Builds from parent edges [(parent, child, weight)].  Fails with a
    description when a child has two parents, an edge re-parents the
    root, or a cycle/disconnected member exists. *)

val cost : t -> float
val mem : t -> int -> bool
(** The root and every child vertex are members. *)

val vertices : t -> int list
val depth : t -> int -> int option
(** Hops to the root; [Some 0] for the root itself. *)

val spans : t -> int list -> bool
(** All the given vertices are members. *)

val topological_order : t -> int list
(** Root first, every parent before its children. *)

