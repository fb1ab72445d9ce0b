open Tmedb_prelude

type hop = { from_node : int; to_node : int; depart : float }
type t = hop list

let departure = function [] -> None | { depart; _ } :: _ -> Some depart

let arrival ~tau j =
  match List.rev j with [] -> None | { depart; _ } :: _ -> Some (depart +. tau)

let length = List.length

let nodes j =
  match j with
  | [] -> []
  | first :: _ ->
      let visited = first.from_node :: List.map (fun h -> h.to_node) j in
      List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) [] visited
      |> List.rev

let is_valid g ~tau j =
  let rec check prev = function
    | [] -> true
    | hop :: rest ->
        let chained =
          match prev with
          | None -> true
          | Some p -> p.to_node = hop.from_node && hop.depart >= p.depart +. tau
        in
        chained
        && Tvg.rho_tau g ~tau hop.from_node hop.to_node hop.depart
        && check (Some hop) rest
  in
  let no_repeat =
    match j with
    | [] -> true
    | first :: _ ->
        let visited = first.from_node :: List.map (fun h -> h.to_node) j in
        List.length visited = List.length (List.sort_uniq Int.compare visited)
  in
  no_repeat && check None j

let is_non_stop ~tau j =
  let rec check = function
    | a :: (b :: _ as rest) -> Float.equal b.depart (a.depart +. tau) && check rest
    | _ -> true
  in
  check j

(* Earliest-arrival scan.  Each settled node relaxes its incident
   contact intervals: from a node reached at time [a], edge (i, j)
   present on [lo, hi) can be traversed departing at max(a, lo)
   provided the traversal fits before [hi]. *)
let earliest_scan g ~tau ~src ~t0 =
  let nn = Tvg.n g in
  if src < 0 || src >= nn then invalid_arg "Journey.earliest_arrival: src out of range";
  if tau < 0. then invalid_arg "Journey.earliest_arrival: negative tau";
  let arrivals = Array.make nn Float.infinity in
  let parent = Array.make nn None in
  let settled = Array.make nn false in
  let queue = Pqueue.create () in
  arrivals.(src) <- t0;
  Pqueue.push queue t0 src;
  let relax i a =
    for j = 0 to nn - 1 do
      if j <> i then
        Interval_set.iter
          (fun iv ->
            let lo = iv.Interval.lo and hi = iv.Interval.hi in
            let depart = Float.max a lo in
            if depart +. tau < hi then begin
              let arr = depart +. tau in
              if arr < arrivals.(j) then begin
                arrivals.(j) <- arr;
                parent.(j) <- Some { from_node = i; to_node = j; depart };
                Pqueue.push queue arr j
              end
            end)
          (Tvg.presence g i j)
    done
  in
  while not (Pqueue.is_empty queue) do
    let a = Pqueue.min_prio queue and i = Pqueue.min_value queue in
    Pqueue.drop_min queue;
    if not settled.(i) then begin
      settled.(i) <- true;
      relax i a
    end
  done;
  (arrivals, parent)

let earliest_arrival g ~tau ~src ~t0 = fst (earliest_scan g ~tau ~src ~t0)

let foremost_journey g ~tau ~src ~t0 ~dst =
  let arrivals, parent = earliest_scan g ~tau ~src ~t0 in
  if Float.is_finite arrivals.(dst) then begin
    let rec walk v acc =
      if v = src then acc
      else
        match parent.(v) with
        | None -> acc
        | Some hop -> walk hop.from_node (hop :: acc)
    in
    Some (walk dst [])
  end
  else None

(* Hop-bounded earliest arrivals: the classic DP for shortest
   journeys.  arr.(h).(j) = earliest arrival at j in <= h hops. *)
let min_hop_scan g ~tau ~src ~t0 =
  let n = Tvg.n g in
  if src < 0 || src >= n then invalid_arg "Journey.min_hop_arrivals: src out of range";
  let arr = Array.make_matrix n n Float.infinity in
  let parent = Array.make_matrix n n None in
  arr.(0).(src) <- t0;
  for h = 1 to n - 1 do
    for j = 0 to n - 1 do
      arr.(h).(j) <- arr.(h - 1).(j);
      parent.(h).(j) <- None
    done;
    for i = 0 to n - 1 do
      if Float.is_finite arr.(h - 1).(i) then
        for j = 0 to n - 1 do
          if j <> i then
            Interval_set.iter
              (fun iv ->
                let lo = iv.Interval.lo and hi = iv.Interval.hi in
                let depart = Float.max arr.(h - 1).(i) lo in
                if depart +. tau < hi then begin
                  let a = depart +. tau in
                  if a < arr.(h).(j) then begin
                    arr.(h).(j) <- a;
                    parent.(h).(j) <- Some { from_node = i; to_node = j; depart }
                  end
                end)
              (Tvg.presence g i j)
        done
    done
  done;
  (arr, parent)

let min_hop_arrivals g ~tau ~src ~t0 = fst (min_hop_scan g ~tau ~src ~t0)

let shortest_journey g ~tau ~src ~t0 ~dst ~deadline =
  let n = Tvg.n g in
  let arr, parent = min_hop_scan g ~tau ~src ~t0 in
  let rec find_level h = if h >= n then None else if arr.(h).(dst) <= deadline then Some h else find_level (h + 1) in
  match find_level 0 with
  | None -> None
  | Some 0 -> Some [] (* dst = src *)
  | Some hops ->
      (* Walk parents downward; a level may repeat the previous level's
         value, in which case the hop was realised earlier. *)
      let rec walk h v acc =
        if h = 0 then acc
        else begin
          match parent.(h).(v) with
          | Some hop -> walk (h - 1) hop.from_node (hop :: acc)
          | None -> walk (h - 1) v acc
        end
      in
      Some (walk hops dst [])

let duration ~tau j =
  match (departure j, arrival ~tau j) with
  | Some d, Some a -> Some (a -. d)
  | None, _ | _, None -> None

let fastest_journey g ~tau ~src ~t0 ~dst =
  let n = Tvg.n g in
  if src < 0 || src >= n then invalid_arg "Journey.fastest_journey: src out of range";
  if dst = src then Some []
  else
  (* Candidate departures: t0 plus the start of every source contact
     at or after t0. *)
  let candidates = ref [ t0 ] in
  for j = 0 to n - 1 do
    if j <> src then
      Interval_set.iter
        (fun iv ->
          let c = Float.max t0 iv.Interval.lo in
          if Interval.mem iv c || Float.equal c iv.Interval.lo then candidates := c :: !candidates)
        (Tvg.presence g src j)
  done;
  let consider best c =
    match foremost_journey g ~tau ~src ~t0:c ~dst with
    | None -> best
    | Some j -> (
        match duration ~tau j with
        | None -> best (* dst = src: empty journey, duration 0 *)
        | Some d -> (
            match best with
            | Some (bd, _) when bd <= d -> best
            | Some _ | None -> Some (d, j)))
  in
  let best = List.fold_left consider None (List.sort_uniq Float.compare !candidates) in
  Option.map snd best

let pp ppf j =
  let pp_hop ppf h = Format.fprintf ppf "%d->%d@@%g" h.from_node h.to_node h.depart in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp_hop)
    j
