type t = { n : int; row : int array; dst : int array; weight : float array }

let of_edges ~n edges =
  if n <= 0 then invalid_arg "Digraph.of_edges: n <= 0";
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Digraph.of_edges: vertex out of range";
      if w < 0. || Float.is_nan w then invalid_arg "Digraph.of_edges: negative weight")
    edges;
  let m = List.length edges in
  let counts = Array.make (n + 1) 0 in
  List.iter (fun (u, _, _) -> counts.(u + 1) <- counts.(u + 1) + 1) edges;
  for i = 1 to n do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  let row = Array.copy counts in
  let cursor = Array.copy counts in
  let dst = Array.make m 0 and weight = Array.make m 0. in
  List.iter
    (fun (u, v, w) ->
      let k = cursor.(u) in
      dst.(k) <- v;
      weight.(k) <- w;
      cursor.(u) <- k + 1)
    edges;
  { n; row; dst; weight }

let n g = g.n
let m g = Array.length g.dst

let iter_succ g u f =
  for k = g.row.(u) to g.row.(u + 1) - 1 do
    f g.dst.(k) g.weight.(k)
  done

let fold_succ g u f init =
  let acc = ref init in
  iter_succ g u (fun v w -> acc := f !acc v w);
  !acc

let out_degree g u = g.row.(u + 1) - g.row.(u)

(* Counting sort by target.  Sources are visited from [n-1] down to 0
   and each row from its last edge to its first, so every reversed row
   lists its predecessors in the order a list-based [of_edges] of the
   prepended (v, u, w) triples gave: that order decides Dijkstra's
   tie-breaks on the reversed graph. *)
let reverse g =
  let m = m g in
  let row = Array.make (g.n + 1) 0 in
  Array.iter (fun v -> row.(v + 1) <- row.(v + 1) + 1) g.dst;
  for i = 1 to g.n do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let cursor = Array.sub row 0 g.n in
  let dst = Array.make m 0 and weight = Array.make m 0. in
  for u = g.n - 1 downto 0 do
    for k = g.row.(u + 1) - 1 downto g.row.(u) do
      let v = g.dst.(k) in
      let c = cursor.(v) in
      dst.(c) <- u;
      weight.(c) <- g.weight.(k);
      cursor.(v) <- c + 1
    done
  done;
  { n = g.n; row; dst; weight }

let edge_weight g u v =
  fold_succ g u
    (fun acc dst w ->
      if dst = v then Some (match acc with None -> w | Some best -> Float.min best w) else acc)
    None

type view = { nv : int; iter_succ : int -> (int -> float -> unit) -> unit }

let view g = { nv = g.n; iter_succ = (fun u f -> iter_succ g u f) }

let view_edge_weight vw u v =
  let acc = ref None in
  vw.iter_succ u (fun dst w ->
      if dst = v then
        acc := Some (match !acc with None -> w | Some best -> Float.min best w));
  !acc

let pp ppf g = Format.fprintf ppf "digraph{n=%d m=%d}" g.n (m g)
