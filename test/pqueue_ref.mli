(** The swap-based binary heap of records that [Tmedb_prelude.Pqueue]
    replaced: the test oracle pinning the array heap's pop order,
    ties included. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** Insert a value with the given priority. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry. *)
