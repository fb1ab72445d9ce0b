(* Priorities and values in two parallel arrays: priorities stay
   unboxed, and a push or a drop allocates nothing unless the arrays
   grow. *)
type t = { mutable prio : float array; mutable value : int array; mutable size : int }

let create () = { prio = [||]; value = [||]; size = 0 }
let length q = q.size
let is_empty q = q.size = 0

let grow q =
  let cap = Array.length q.prio in
  if q.size = cap then begin
    let ncap = Stdlib.max 16 (2 * cap) in
    let nprio = Array.make ncap 0. and nvalue = Array.make ncap 0 in
    Array.blit q.prio 0 nprio 0 q.size;
    Array.blit q.value 0 nvalue 0 q.size;
    q.prio <- nprio;
    q.value <- nvalue
  end

(* The sifts move a hole instead of swapping, which places every entry
   exactly where the swap formulation would: a child rises past its
   parent only on a strict [<], and sinking prefers the left child
   unless the right one is strictly smaller. *)
let sift_up q i p v =
  let prio = q.prio and value = q.value in
  let i = ref i in
  while !i > 0 && p < prio.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    prio.(!i) <- prio.(parent);
    value.(!i) <- value.(parent);
    i := parent
  done;
  prio.(!i) <- p;
  value.(!i) <- v

let sift_down q i p v =
  let prio = q.prio and value = q.value and size = q.size in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c = if l < size && prio.(l) < p then l else !i in
    let c = if r < size && prio.(r) < (if c = !i then p else prio.(c)) then r else c in
    if c = !i then moving := false
    else begin
      prio.(!i) <- prio.(c);
      value.(!i) <- value.(c);
      i := c
    end
  done;
  prio.(!i) <- p;
  value.(!i) <- v

let push q p v =
  grow q;
  q.size <- q.size + 1;
  sift_up q (q.size - 1) p v

let check_nonempty q fn = if q.size = 0 then invalid_arg ("Pqueue." ^ fn ^ ": empty")

let min_prio q =
  check_nonempty q "min_prio";
  q.prio.(0)

let min_value q =
  check_nonempty q "min_value";
  q.value.(0)

let drop_min q =
  check_nonempty q "drop_min";
  q.size <- q.size - 1;
  if q.size > 0 then sift_down q 0 q.prio.(q.size) q.value.(q.size)
