(* The traced run's span recorder.  Spans are opened by the benchmark
   around its own calls into the program's layers; each records its
   name, start, end, parent, domain and the minor words its domain
   allocated meanwhile.  Finished spans are kept in memory and taken
   once per operation. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root. *)
  domain : int;
  start : float;
  stop : float;
  words : float;  (** Minor words allocated on [domain] while open. *)
}

let lock = Mutex.create ()
let finished = ref []
let next_id = Atomic.make 1

(* Open spans of the calling domain, innermost first. *)
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let current () = match Domain.DLS.get stack with id :: _ -> id | [] -> 0

(* [with_ ?parent name f] runs [f] inside a span.  [parent] defaults to
   the calling domain's innermost open span; pass it explicitly for
   work handed to another domain. *)
let with_ ?parent name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let outer = Domain.DLS.get stack in
  let parent = match parent with Some p -> p | None -> current () in
  Domain.DLS.set stack (id :: outer);
  let w0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      let words = Gc.minor_words () -. w0 in
      Domain.DLS.set stack outer;
      let s = { id; name; parent; domain = (Domain.self () :> int); start; stop; words } in
      Mutex.protect lock (fun () -> finished := s :: !finished))

let take () =
  Mutex.protect lock (fun () ->
      let s = !finished in
      finished := [];
      List.rev s)

(* Total length of the union of [(lo, hi)] intervals. *)
let covered intervals =
  Tmedb_prelude.Interval_set.total_length
    (Tmedb_prelude.Interval_set.of_list
       (List.map (fun (lo, hi) -> Tmedb_prelude.Interval.make ~lo ~hi) intervals))

(* Self time and self words of every span: its duration minus the time
   its children cover (children on any domain, clipped to the span),
   and its words minus those of its children on the same domain. *)
let self_costs spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let cover =
        covered
          (List.filter_map
             (fun k ->
               let lo = Float.max k.start s.start and hi = Float.min k.stop s.stop in
               if hi > lo then Some (lo, hi) else None)
             kids)
      in
      let kid_words =
        List.fold_left (fun acc k -> if k.domain = s.domain then acc +. k.words else acc) 0. kids
      in
      (s, s.stop -. s.start -. cover, s.words -. kid_words))
    spans
