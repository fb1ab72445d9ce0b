type t = { n : int; root : int; parent_of : (int * float) option array }

let of_edges ~n ~root edges =
  if root < 0 || root >= n then Error "root out of range"
  else begin
    let parent_of = Array.make n None in
    let rec add = function
      | [] -> Ok ()
      | (u, v, w) :: rest ->
          if u < 0 || u >= n || v < 0 || v >= n then Error "vertex out of range"
          else if v = root then Error "edge re-parents the root"
          else begin
            match parent_of.(v) with
            | Some _ -> Error (Printf.sprintf "vertex %d has two parents" v)
            | None ->
                parent_of.(v) <- Some (u, w);
                add rest
          end
    in
    match add edges with
    | Error e -> Error e
    | Ok () ->
        (* Every member must reach the root without a cycle. *)
        let status = Array.make n `Unknown in
        status.(root) <- `Ok;
        let rec check v trail =
          match status.(v) with
          | `Ok -> Ok ()
          | `Visiting -> Error (Printf.sprintf "cycle through vertex %d" v)
          | `Unknown -> (
              match parent_of.(v) with
              | None -> Error (Printf.sprintf "vertex %d disconnected from root" v)
              | Some (p, _) -> (
                  status.(v) <- `Visiting;
                  match check p (v :: trail) with
                  | Ok () ->
                      status.(v) <- `Ok;
                      Ok ()
                  | Error e -> Error e))
        in
        let rec check_all v =
          if v >= n then Ok ()
          else if parent_of.(v) = None then check_all (v + 1)
          else begin
            match check v [] with Ok () -> check_all (v + 1) | Error e -> Error e
          end
        in
        (match check_all 0 with
        | Ok () -> Ok { n; root; parent_of }
        | Error e -> Error e)
  end

let cost t = Array.fold_left (fun acc p -> match p with Some (_, w) -> acc +. w | None -> acc) 0. t.parent_of
let mem t v = v = t.root || t.parent_of.(v) <> None

let vertices t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if mem t v then acc := v :: !acc
  done;
  !acc

let depth t v =
  if not (mem t v) then None
  else begin
    let rec walk v acc = if v = t.root then acc else
      match t.parent_of.(v) with
      | Some (p, _) -> walk p (acc + 1)
      | None -> acc (* unreachable by invariant *)
    in
    Some (walk v 0)
  end

let spans t vs = List.for_all (mem t) vs

let topological_order t =
  let members = vertices t in
  let keyed = List.map (fun v -> (Option.value ~default:0 (depth t v), v)) members in
  List.map snd (List.sort compare keyed)
