(* End-to-end run of one workload: a closed loop with one client, each
   operation starting when the previous one returned.

   Every workload runs on one domain.  Set-up (input generation and
   source choice) runs five times and reports its median.  The loop
   then cycles through the workload's instances until --seconds have
   elapsed and every instance has run at least once, so energies and
   delivery ratios are always taken over the same instance set and the
   tail percentile always has at least ten operations beyond it.
   Outputs are kept and checked after the timed loop. *)

open Tmedb
open Pb_common

type evaluation = { energy : float; delivery : float; violations : string list }

type prepared = {
  count : int;  (** Distinct instances; one pass runs each once. *)
  run : int -> unit -> evaluation;
      (** [run k] is the timed operation on instance [k]; it returns the
          untimed evaluation of its output. *)
}

type workload = { name : string; prepare : seed:int -> prepared }

let eedcb_sweep ~count =
  {
    name = "eedcb-sweep";
    prepare =
      (fun ~seed ->
        let planner = Pb_inputs.planner "EEDCB" in
        let insts = Pb_inputs.Eedcb_sweep.instances ~seed in
        {
          count;
          run =
            (fun k ->
              let inst = insts.(k) in
              let o = Pb_inputs.Eedcb_sweep.run planner inst in
              fun () ->
                let problem = inst.Pb_inputs.Eedcb_sweep.problem in
                let schedule = o.Planner.Outcome.schedule in
                let verdict = Pb_check.static_schedule ~require_all:true problem schedule in
                let energy = Metrics.normalized_energy problem schedule in
                let unreached =
                  if o.Planner.Outcome.unreached = [] then []
                  else [ "planner reports unreached nodes on a completable instance" ]
                in
                {
                  energy;
                  delivery =
                    float_of_int verdict.Pb_check.informed
                    /. float_of_int inst.Pb_inputs.Eedcb_sweep.n;
                  violations =
                    unreached @ verdict.Pb_check.violations
                    @ Pb_check.energy_bound_violations problem energy;
                });
        });
  }

let fading_greed ~count =
  {
    name = "fading-greed";
    prepare =
      (fun ~seed ->
        let planner = Pb_inputs.planner "FR-GREED" in
        let insts = Pb_inputs.Fading_greed.instances ~seed in
        {
          count;
          run =
            (fun k ->
              let inst = insts.(k) in
              let o, sim = Pb_inputs.Fading_greed.run planner inst in
              fun () ->
                let problem = inst.Pb_inputs.Fading_greed.problem in
                let schedule = o.Planner.Outcome.schedule in
                let verdict =
                  Pb_check.fading_schedule ~unreached:o.Planner.Outcome.unreached problem schedule
                in
                let energy = Metrics.normalized_energy problem schedule in
                let sim_ok =
                  if sim.Simulate.trials = Pb_inputs.Fading_greed.trials
                     && sim.Simulate.delivery_ratio > 0.
                     && sim.Simulate.delivery_ratio <= 1.
                  then []
                  else [ "Monte-Carlo replay returned an out-of-range delivery ratio" ]
                in
                {
                  energy;
                  delivery = sim.Simulate.delivery_ratio;
                  violations =
                    sim_ok @ verdict.Pb_check.violations
                    @ Pb_check.energy_bound_violations problem energy;
                });
        });
  }

let pareto_scale ~count =
  {
    name = "pareto-scale";
    prepare =
      (fun ~seed ->
        let planner = Pb_inputs.planner "SPT" in
        let insts = Pb_inputs.Pareto_scale.instances ~seed in
        {
          count;
          run =
            (fun k ->
              let inst = insts.(k) in
              let sweep = Pb_inputs.Pareto_scale.run planner inst in
              fun () ->
                let n = inst.Pb_inputs.Pareto_scale.n in
                let pts = sweep.Pareto.points in
                let complete =
                  List.filter (fun (p : Pareto.point) -> p.Pareto.unreached = 0) pts
                in
                {
                  energy =
                    mean
                      (Array.of_list (List.map (fun (p : Pareto.point) -> p.Pareto.energy) complete));
                  delivery =
                    mean
                      (Array.of_list
                         (List.map
                            (fun (p : Pareto.point) ->
                              float_of_int (n - p.Pareto.unreached) /. float_of_int n)
                            pts));
                  violations =
                    (if complete = [] then [ "no grid point completes the broadcast" ] else [])
                    @ Pb_check.pareto_points ~n ~grid:inst.Pb_inputs.Pareto_scale.grid
                        inst.Pb_inputs.Pareto_scale.problem sweep;
                });
        });
  }

let workloads =
  [
    eedcb_sweep ~count:Pb_inputs.Eedcb_sweep.count;
    fading_greed ~count:Pb_inputs.Fading_greed.count;
    pareto_scale ~count:Pb_inputs.Pareto_scale.count;
  ]

let () =
  let args = parse_args () in
  let w =
    match List.find_opt (fun w -> w.name = args.workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ args.workload);
        exit 2
  in
  let setups = 5 in
  let setup_times = Array.make setups 0. in
  let prepared = ref None in
  for i = 0 to setups - 1 do
    let t0 = now () in
    let p = w.prepare ~seed:args.seed in
    setup_times.(i) <- now () -. t0;
    prepared := Some p
  done;
  let p = Option.get !prepared in
  (* One untimed operation first, so heap growth and first-touch costs
     are not charged to the first timed one. *)
  (try ignore (p.run 0 ()) with _ -> ());
  let times = ref [] and outputs = ref [] and ops = ref 0 in
  (* The heap peak is read once the first pass is done: up to there the
     allocation sequence, and so the peak, is a function of the seed
     alone, not of how many more ops the machine's speed allowed. *)
  let peak_mb = ref nan in
  let start = now () in
  while not (now () -. start >= args.seconds && !ops >= p.count) do
    let k = !ops mod p.count in
    let t0 = now () in
    let out = try Ok (p.run k) with e -> Error (Printexc.to_string e) in
    times := (now () -. t0) :: !times;
    outputs := (k, out) :: !outputs;
    incr ops;
    if !ops = p.count then peak_mb := peak_heap_mb ()
  done;
  let wall = now () -. start in
  let times = Array.of_list (List.rev !times) in
  let first = Array.make p.count None in
  let failed = ref 0 in
  List.iter
    (fun (k, out) ->
      let ev =
        match out with
        | Ok check -> (
            try check () with e -> { energy = nan; delivery = nan; violations = [ Printexc.to_string e ] })
        | Error e -> { energy = nan; delivery = nan; violations = [ "exception: " ^ e ] }
      in
      (* A repeated instance must reproduce its first output. *)
      let ev =
        match first.(k) with
        | None ->
            first.(k) <- Some ev;
            ev
        | Some ev0 when Float.equal ev0.energy ev.energy && Float.equal ev0.delivery ev.delivery -> ev
        | Some _ -> { ev with violations = "output differs from the first run of the instance" :: ev.violations }
      in
      if ev.violations <> [] then begin
        incr failed;
        if !failed <= 5 then
          Printf.eprintf "%s: instance %d failed: %s\n%!" w.name k (String.concat "; " ev.violations)
      end)
    (List.rev !outputs);
  let firsts = Array.map Option.get first in
  let ok_values f =
    Array.of_list
      (List.filter_map
         (fun ev -> if ev.violations = [] then Some (f ev) else None)
         (Array.to_list firsts))
  in
  let q = tail_percentile p.count in
  let attempted = !ops in
  let times_json = Tmedb_prelude.Json.(List (Array.to_list (Array.map (fun t -> Num t) setup_times))) in
  let tail = Tmedb_prelude.Stats.percentile times (float_of_int q) in
  let num i = Tmedb_prelude.Json.Num (float_of_int i) in
  print_stamp args ~mode:"e2e" ~domains:1
    ~fields:
      [
        ("instances", num p.count);
        ("ops", num attempted);
        ("failed", num !failed);
        ("wall_s", Tmedb_prelude.Json.Num wall);
        ("op_s_tail_percentile", num q);
        ("ops_beyond_tail", num (Array.fold_left (fun c t -> if t > tail then c + 1 else c) 0 times));
        ("setup_s_samples", times_json);
      ];
  print_result ~correct:(!failed = 0) ~attempted ~failed:!failed
    [
      ("ops_per_s", float_of_int attempted /. wall, "1/s");
      ("op_s_p50", Tmedb_prelude.Stats.median times, "s");
      ("op_s_tail", tail, "s");
      ("setup_s", Tmedb_prelude.Stats.median setup_times, "s");
      ("peak_heap_mb", !peak_mb, "MB");
      ("energy_mean", mean (ok_values (fun ev -> ev.energy)), "m2");
      ("delivery_ratio", mean (ok_values (fun ev -> ev.delivery)), "frac");
      ("ok_frac", float_of_int (attempted - !failed) /. float_of_int attempted, "frac");
    ];
  exit 0
