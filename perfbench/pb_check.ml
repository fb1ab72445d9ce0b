(* Output checker, independent of the program's Feasibility module.

   A schedule is replayed in time order against raw TVEG queries
   ([Tveg.dist_at]) and the channel's ED-functions, and the paper's
   conditions are re-derived from scratch:
   (i)   every relay is informed no later than it transmits,
   (ii)  every node is informed by the deadline,
   (iii) every transmission completes by the deadline,
   plus costs inside the cost set and, for a fading design channel,
   each node's accumulated failure probability Π φ(w) ≤ ε (eq. 15),
   relays counting only transmissions that complete before their own.
   Energies are checked against the certified lower bound. *)

open Tmedb
open Tmedb_channel
open Tmedb_tveg

type verdict = {
  violations : string list;
  informed : int;  (** Nodes informed by the deadline, source included. *)
}

let cost_violations phy txs =
  List.filter_map
    (fun (tx : Schedule.transmission) ->
      if Float.is_finite tx.Schedule.cost && Phy.in_cost_set phy tx.Schedule.cost then None
      else
        Some (Printf.sprintf "cost %g of relay %d at %g is outside the cost set" tx.Schedule.cost
                tx.Schedule.relay tx.Schedule.time))
    txs

let deadline_violations ~tau ~deadline txs =
  List.filter_map
    (fun (tx : Schedule.transmission) ->
      if tx.Schedule.time +. tau <= deadline then None
      else
        Some (Printf.sprintf "(iii) relay %d transmits at %g, past the deadline %g"
                tx.Schedule.relay tx.Schedule.time deadline))
    txs

(* Static channel: a receiver hears a transmission iff the link exists
   for the whole [t, t + tau] and the cost reaches its threshold.
   Informed times are relaxed to a fixpoint over the time-ordered
   schedule, because under tau = 0 transmissions sharing one instant
   may chain. *)
let static_schedule ~require_all (problem : Problem.t) schedule =
  let g = problem.Problem.graph and phy = problem.Problem.phy in
  let n = Tveg.n g and tau = Tveg.tau g and deadline = problem.Problem.deadline in
  let txs = Schedule.transmissions schedule in
  let informed = Array.make n Float.infinity in
  informed.(problem.Problem.source) <- Problem.span_start problem;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (tx : Schedule.transmission) ->
        let r = tx.Schedule.relay and t = tx.Schedule.time in
        if informed.(r) <= t then
          for j = 0 to n - 1 do
            if j <> r then
              match Tveg.dist_at g r j t with
              | Some dist ->
                  let ed = Ed_function.of_distance phy `Static ~dist in
                  if Ed_function.failure_prob ed ~w:tx.Schedule.cost = 0. && t +. tau < informed.(j)
                  then begin
                    informed.(j) <- t +. tau;
                    changed := true
                  end
              | None -> ()
          done)
      txs
  done;
  let relay_violations =
    List.filter_map
      (fun (tx : Schedule.transmission) ->
        if informed.(tx.Schedule.relay) <= tx.Schedule.time then None
        else
          Some (Printf.sprintf "(i) relay %d transmits at %g before it is informed"
                  tx.Schedule.relay tx.Schedule.time))
      txs
  in
  let informed_count = Array.fold_left (fun c t -> if t <= deadline then c + 1 else c) 0 informed in
  let coverage =
    if require_all && informed_count < n then
      [ Printf.sprintf "(ii) %d of %d nodes uninformed at the deadline" (n - informed_count) n ]
    else []
  in
  {
    violations =
      relay_violations @ coverage @ deadline_violations ~tau ~deadline txs @ cost_violations phy txs;
    informed = informed_count;
  }

(* Fading design channel: recompute every node's failure probability
   from the ED-functions (eq. 15), and every relay's before it
   transmits.  GREED-style backbones may strand nodes even on a
   completable instance, so the planner's [unreached] report is checked
   for consistency instead: exactly the reported nodes stay above ε. *)
let fading_schedule ~unreached (problem : Problem.t) schedule =
  let g = problem.Problem.graph and phy = problem.Problem.phy in
  let n = Tveg.n g and tau = Tveg.tau g and deadline = problem.Problem.deadline in
  let source = problem.Problem.source in
  let txs = Array.of_list (Schedule.transmissions schedule) in
  (* log φ of transmission k at node j (0 when j cannot hear it). *)
  let log_fail k j =
    let tx = txs.(k) in
    if j = tx.Schedule.relay then 0.
    else
      match Tveg.dist_at g tx.Schedule.relay j tx.Schedule.time with
      | None -> 0.
      | Some dist ->
          let ed = Ed_function.of_distance phy problem.Problem.channel ~dist in
          log (Ed_function.failure_prob ed ~w:tx.Schedule.cost)
  in
  let log_eps = log phy.Phy.eps +. 1e-9 in
  let bound ~until j =
    let acc = ref 0. in
    Array.iteri
      (fun k (tx : Schedule.transmission) ->
        if tx.Schedule.time +. tau <= until then acc := !acc +. log_fail k j)
      txs;
    !acc
  in
  let node_violations = ref [] and informed = ref 1 in
  for j = n - 1 downto 0 do
    if j <> source then begin
      let lp = bound ~until:deadline j in
      let reported = List.mem j unreached in
      if lp <= log_eps then begin
        incr informed;
        if reported then
          node_violations :=
            Printf.sprintf "node %d is reported unreached but is informed" j :: !node_violations
      end
      else if not reported then
        node_violations :=
          Printf.sprintf "(ii) node %d fails with probability %.4g > eps %g (eq. 15)" j (exp lp)
            phy.Phy.eps
          :: !node_violations
    end
  done;
  let relay_violations =
    Array.to_list txs
    |> List.filter_map (fun (tx : Schedule.transmission) ->
           let r = tx.Schedule.relay in
           if r = source then None
           else begin
             let lp = bound ~until:tx.Schedule.time r in
             if lp <= log_eps then None
             else
               Some (Printf.sprintf "(i) relay %d transmits at %g with failure probability %.4g"
                       r tx.Schedule.time (exp lp))
           end)
  in
  let txl = Array.to_list txs in
  {
    violations =
      relay_violations @ !node_violations @ deadline_violations ~tau ~deadline txl
      @ cost_violations phy txl;
    informed = !informed;
  }

(* No feasible schedule can be cheaper than the certified bound. *)
let energy_bound_violations (problem : Problem.t) energy =
  let lb = Phy.normalized_energy problem.Problem.phy (Metrics.energy_lower_bound problem) in
  if Float.is_finite energy && energy >= lb *. (1. -. 1e-9) then []
  else [ Printf.sprintf "energy %g is below the certified lower bound %g" energy lb ]

(* A Pareto sweep's points, re-derived: one point per grid deadline,
   unreached points marked dominated, dominance recomputed from the
   definition and the front listing exactly the non-dominated points. *)
let pareto_points ~n ~grid (problem : Problem.t) (sweep : Pareto.t) =
  let pts = sweep.Pareto.points in
  let v = ref [] in
  let add s = v := s :: !v in
  if List.map (fun (p : Pareto.point) -> p.Pareto.deadline) pts <> grid then
    add "points do not follow the deadline grid";
  let complete (p : Pareto.point) = p.Pareto.unreached = 0 in
  List.iter
    (fun (p : Pareto.point) ->
      let d = p.Pareto.deadline in
      if p.Pareto.unreached < 0 || p.Pareto.unreached >= n then
        add (Printf.sprintf "point %g: unreached count %d out of range" d p.Pareto.unreached);
      if p.Pareto.unreached > 0 && not p.Pareto.dominated then
        add (Printf.sprintf "point %g leaves nodes unreached but is not marked dominated" d);
      if Bool.equal p.Pareto.feasible (not (complete p)) then
        add (Printf.sprintf "point %g: feasible=%b with %d unreached" d p.Pareto.feasible
               p.Pareto.unreached);
      let expect_dominated =
        (not (complete p))
        || List.exists
             (fun (q : Pareto.point) ->
               complete q
               && q.Pareto.deadline <= d
               && q.Pareto.energy <= p.Pareto.energy
               && (q.Pareto.deadline < d || q.Pareto.energy < p.Pareto.energy))
             pts
      in
      if not (Bool.equal expect_dominated p.Pareto.dominated) then
        add (Printf.sprintf "point %g: dominated=%b, expected %b" d p.Pareto.dominated
               expect_dominated);
      if complete p then
        List.iter add
          (energy_bound_violations { problem with Problem.deadline = d } p.Pareto.energy))
    pts;
  let front =
    List.filter_map
      (fun (p : Pareto.point) -> if p.Pareto.dominated then None else Some p.Pareto.deadline)
      pts
  in
  if front <> sweep.Pareto.front then add "front does not list the non-dominated points";
  List.rev !v
