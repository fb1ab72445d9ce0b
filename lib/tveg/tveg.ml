open Tmedb_prelude

type link = { iv : Interval.t; dist : float }
type channel = [ `Static | `Rayleigh | `Nakagami of float | `Lognormal of float ]

(* One unordered pair's contact history.  [segs] is sorted by segment
   start; [prefmax.(k)] is the max segment end over segs.(0..k), which
   bounds the leftward scan in [covering_link] (overlapping segments
   are rare, so lookups are O(log L) in practice).  [presence] is the
   normalised union of the segment intervals, shared with the TVG
   algebra and the earliest-arrival scan. *)
type pair = { segs : link array; prefmax : float array; presence : Interval_set.t }

(* Sparse storage: only pairs with at least one contact exist, keyed
   by [i * n + j] (i < j), plus sorted per-node adjacency.  The dense
   triangular array this replaces was O(N^2) in memory and made every
   all-neighbours loop O(N) regardless of degree. *)
type t = {
  n : int;
  span : Interval.t;
  tau : float;
  pairs : (int, pair) Hashtbl.t;
  adj : int array array;
}

let pair_key t i j =
  let i, j = if i < j then (i, j) else (j, i) in
  (i * t.n) + j

let check_pair_n n i j op =
  if i < 0 || j < 0 || i >= n || j >= n then
    invalid_arg ("Tveg." ^ op ^ ": node out of range");
  if i = j then invalid_arg ("Tveg." ^ op ^ ": self-loop")

let check_pair t i j op = check_pair_n t.n i j op
let sort_links links = List.sort (fun a b -> Interval.compare a.iv b.iv) links

let make_pair segs_list =
  let segs = Array.of_list segs_list in
  let prefmax = Array.make (Array.length segs) Float.neg_infinity in
  let m = ref Float.neg_infinity in
  Array.iteri
    (fun k s ->
      m := Float.max !m s.iv.Interval.hi;
      prefmax.(k) <- !m)
    segs;
  let presence = Interval_set.of_list (List.map (fun s -> s.iv) segs_list) in
  { segs; prefmax; presence }

let finish_adj deg =
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Array.sort Int.compare a;
      a)
    deg

let create ~n ~span ~tau entries =
  if n <= 0 then invalid_arg "Tveg.create: n <= 0";
  if tau < 0. then invalid_arg "Tveg.create: negative tau";
  let tbl = Hashtbl.create 256 in
  let keys = ref [] in
  List.iter
    (fun (i, j, link) ->
      check_pair_n n i j "create";
      if not (Interval.contains span link.iv) then
        invalid_arg "Tveg.create: link outside the span";
      if link.dist <= 0. then invalid_arg "Tveg.create: non-positive distance";
      let i', j' = if i < j then (i, j) else (j, i) in
      let k = (i' * n) + j' in
      match Hashtbl.find_opt tbl k with
      | None ->
          keys := k :: !keys;
          Hashtbl.replace tbl k [ link ]
      | Some ls -> Hashtbl.replace tbl k (link :: ls))
    entries;
  let pairs = Hashtbl.create (List.length !keys) in
  let deg = Array.make n [] in
  List.iter
    (fun k ->
      let i = k / n and j = k mod n in
      Hashtbl.replace pairs k (make_pair (sort_links (Hashtbl.find tbl k)));
      deg.(i) <- j :: deg.(i);
      deg.(j) <- i :: deg.(j))
    !keys;
  { n; span; tau; pairs; adj = finish_adj deg }

let of_trace ~tau trace =
  let open Tmedb_trace in
  let entries =
    List.map
      (fun c -> (c.Contact.a, c.Contact.b, { iv = c.Contact.iv; dist = c.Contact.dist }))
      (Trace.contacts trace)
  in
  create ~n:(Trace.n trace) ~span:(Trace.span trace) ~tau entries

let n t = t.n
let span t = t.span
let tau t = t.tau
let find_pair t i j = Hashtbl.find_opt t.pairs (pair_key t i j)

let links t i j =
  if i = j then []
  else begin
    check_pair t i j "links";
    match find_pair t i j with None -> [] | Some p -> Array.to_list p.segs
  end

let neighbor_ids t i =
  if i < 0 || i >= t.n then invalid_arg "Tveg.neighbor_ids: node out of range";
  t.adj.(i)

let presence t i j =
  if i = j then Interval_set.empty
  else begin
    check_pair t i j "presence";
    match find_pair t i j with None -> Interval_set.empty | Some p -> p.presence
  end

(* First covering segment in segment-start order, as the dense
   representation's [List.find_opt] returned.  Binary-search the
   rightmost segment starting at or before [time], then scan left
   while the prefix could still contain a cover (prefmax > time),
   keeping the lowest-index hit. *)
let covering_seg p time =
  let len = Array.length p.segs in
  if len = 0 || time < p.segs.(0).iv.Interval.lo then None
  else begin
    let lo = ref 0 and hi = ref len in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if p.segs.(mid).iv.Interval.lo <= time then lo := mid else hi := mid
    done;
    let best = ref None in
    let k = ref !lo and scanning = ref true in
    while !scanning do
      if Interval.mem p.segs.(!k).iv time then best := Some p.segs.(!k);
      if !k = 0 || p.prefmax.(!k - 1) <= time then scanning := false else decr k
    done;
    !best
  end

let covering_link t i j time =
  if i = j then None
  else begin
    check_pair t i j "covering_link";
    match find_pair t i j with None -> None | Some p -> covering_seg p time
  end

let rho_tau t i j time =
  match covering_link t i j time with
  | None -> false
  | Some l -> time +. t.tau < l.iv.Interval.hi

let dist_at t i j time =
  match covering_link t i j time with
  | Some l when time +. t.tau < l.iv.Interval.hi -> Some l.dist
  | Some _ | None -> None

let ed_at t ~phy ~channel i j time =
  let open Tmedb_channel in
  match dist_at t i j time with
  | None -> Ed_function.Absent
  | Some dist -> Ed_function.of_distance phy channel ~dist

let neighbors_at t i time =
  let acc = ref [] in
  let adj = t.adj.(i) in
  for k = Array.length adj - 1 downto 0 do
    let j = adj.(k) in
    match dist_at t i j time with Some d -> acc := (j, d) :: !acc | None -> ()
  done;
  !acc

let to_tvg t =
  let g = ref (Tmedb_tvg.Tvg.create ~n:t.n ~span:t.span) in
  for i = 0 to t.n - 1 do
    Array.iter
      (fun j ->
        if j > i then
          List.iter (fun l -> g := Tmedb_tvg.Tvg.add_presence !g i j l.iv) (links t i j))
      t.adj.(i)
  done;
  !g

let adjacent_partition t i =
  let pts = ref [] in
  Array.iter
    (fun j ->
      List.iter
        (fun l -> pts := l.iv.Interval.lo :: l.iv.Interval.hi :: !pts)
        (links t i j))
    t.adj.(i);
  Tmedb_tvg.Partition.make ~span:t.span !pts

let average_degree_over t ~window =
  Tmedb_tvg.Tvg.average_degree_over (to_tvg t) ~window

let restrict t ~span:sub =
  if not (Interval.contains t.span sub) then invalid_arg "Tveg.restrict: span not contained";
  let pairs = Hashtbl.create (Hashtbl.length t.pairs) in
  let deg = Array.make t.n [] in
  for i = 0 to t.n - 1 do
    Array.iter
      (fun j ->
        if j > i then begin
          match find_pair t i j with
          | None -> ()
          | Some p ->
              let clipped =
                Array.to_list p.segs
                |> List.filter_map (fun l ->
                       match Interval.inter l.iv sub with
                       | None -> None
                       | Some iv -> Some { l with iv })
              in
              (match clipped with
              | [] -> ()
              | _ :: _ ->
                  Hashtbl.replace pairs ((i * t.n) + j) (make_pair clipped);
                  deg.(i) <- j :: deg.(i);
                  deg.(j) <- i :: deg.(j))
        end)
      t.adj.(i)
  done;
  { t with span = sub; pairs; adj = finish_adj deg }

(* Temporal Dijkstra over contact segments (the Tvg journey scan,
   restated on the sparse adjacency): from a node reached at time [a],
   a presence window [lo, hi) can be traversed departing at
   max(a, lo) provided the traversal fits before [hi].  Replaces the
   O(N^2) densification [Journey.earliest_arrival (to_tvg g)] on the
   DTS source-pruning path. *)
let earliest_arrival t ~src ~t0 =
  if src < 0 || src >= t.n then invalid_arg "Tveg.earliest_arrival: src out of range";
  let arrivals = Array.make t.n Float.infinity in
  let settled = Array.make t.n false in
  let queue = Pqueue.create () in
  arrivals.(src) <- t0;
  Pqueue.push queue t0 src;
  let relax i a =
    Array.iter
      (fun j ->
        match find_pair t i j with
        | None -> ()
        | Some p ->
            Interval_set.iter
              (fun iv ->
                let lo = iv.Interval.lo and hi = iv.Interval.hi in
                let depart = Float.max a lo in
                if depart +. t.tau < hi then begin
                  let arr = depart +. t.tau in
                  if arr < arrivals.(j) then begin
                    arrivals.(j) <- arr;
                    Pqueue.push queue arr j
                  end
                end)
              p.presence)
      t.adj.(i)
  in
  while not (Pqueue.is_empty queue) do
    let a = Pqueue.min_prio queue and i = Pqueue.min_value queue in
    Pqueue.drop_min queue;
    if not settled.(i) then begin
      settled.(i) <- true;
      relax i a
    end
  done;
  arrivals

let pp ppf t =
  let count = ref 0 in
  for i = 0 to t.n - 1 do
    Array.iter
      (fun j ->
        if j > i then
          match find_pair t i j with
          | None -> ()
          | Some p -> count := !count + Array.length p.segs)
      t.adj.(i)
  done;
  Format.fprintf ppf "tveg{n=%d span=%a tau=%g links=%d}" t.n Interval.pp t.span t.tau !count
