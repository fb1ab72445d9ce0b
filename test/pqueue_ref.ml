(* The record-based heap [Pqueue] used before its priorities and
   values moved into unboxed arrays, kept verbatim in its sift rules:
   the tie-order oracle for the array heap. *)
type 'a entry = { prio : float; value : 'a }
type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length q = q.size

let grow q entry =
  let cap = Array.length q.data in
  if q.size = cap then begin
    let ncap = Stdlib.max 16 (2 * cap) in
    let ndata = Array.make ncap entry in
    Array.blit q.data 0 ndata 0 q.size;
    q.data <- ndata
  end

let rec sift_up data i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if data.(i).prio < data.(parent).prio then begin
      let tmp = data.(i) in
      data.(i) <- data.(parent);
      data.(parent) <- tmp;
      sift_up data parent
    end
  end

let rec sift_down data size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < size && data.(l).prio < data.(!smallest).prio then smallest := l;
  if r < size && data.(r).prio < data.(!smallest).prio then smallest := r;
  if !smallest <> i then begin
    let tmp = data.(i) in
    data.(i) <- data.(!smallest);
    data.(!smallest) <- tmp;
    sift_down data size !smallest
  end

let push q prio value =
  let entry = { prio; value } in
  grow q entry;
  q.data.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q.data (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.data.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.data.(0) <- q.data.(q.size);
      sift_down q.data q.size 0
    end;
    Some (top.prio, top.value)
  end
