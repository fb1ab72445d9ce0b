(* Command line, statistics, the run stamp and the result printer shared
   by the end-to-end executable (e2e.exe) and the traced one
   (traced.exe). *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  commit : string;
  source_digest : string;
}

let usage =
  "usage: (e2e|traced).exe --workload NAME --seed N --seconds S [--commit C] [--source-digest D]"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let commit = ref "unknown" and digest = ref "unknown" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--commit" :: v :: rest ->
        commit := v;
        go rest
    | "--source-digest" :: v :: rest ->
        digest := v;
        go rest
    | arg :: _ ->
        prerr_endline ("unknown argument " ^ arg ^ "\n" ^ usage);
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds) with
  | Some seed, Some seconds when !workload <> "" && seconds > 0. ->
      { workload = !workload; seed; seconds; commit = !commit; source_digest = !digest }
  | _ ->
      prerr_endline usage;
      exit 2

let now = Unix.gettimeofday

(* Stats.mean, but NaN (printed as null) for an empty sample. *)
let mean xs = if Array.length xs = 0 then nan else Tmedb_prelude.Stats.mean xs

(* The highest whole percentile that leaves at least ten of [n] samples
   strictly beyond it. *)
let tail_percentile n = if n <= 10 then 0 else 100 * (n - 10) / n

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int st.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* The provenance line printed before the result: what ran, where and
   on how many cores. *)
let print_stamp args ~mode ~domains ~fields =
  let open Tmedb_prelude.Json in
  let base =
    [
      ("mode", Str mode);
      ("workload", Str args.workload);
      ("seed", Num (float_of_int args.seed));
      ("seconds", Num args.seconds);
      ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Str Sys.ocaml_version);
      ("domains", Num (float_of_int domains));
      ("commit", Str args.commit);
      ("source_digest", Str args.source_digest);
    ]
  in
  print_endline ("stamp " ^ to_string ~indent:0 (Obj (base @ fields)))

(* The last line of standard output: the result object. *)
let print_result ~correct ~attempted ~failed metrics =
  let open Tmedb_prelude.Json in
  let metric (name, value, unit) = (name, Obj [ ("value", Num value); ("unit", Str unit) ]) in
  print_endline
    (to_string ~indent:0
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Num (float_of_int attempted));
            ("failed", Num (float_of_int failed));
            ("metrics", Obj (List.map metric metrics));
          ]))
