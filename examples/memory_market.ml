(* The memory market (paper §2.4): batch programs save drams, buy memory,
   run, swap out, and quiesce.

   Three batch jobs with different incomes compete for a machine whose
   memory holds roughly one working set at a time. Each job repeatedly
   runs the paper's batch cycle:

     save drams  ->  request frames from the SPCM  ->  fault the working
     set in through its own segment manager  ->  compute for a slice  ->
     swap out (dirty pages to its swap area, frames back to the system,
     the 2.2 suspension protocol)  ->  quiesce.

   Higher income buys a larger share of the machine over time — the
   paper's administrative-policy claim.

   Run with: dune exec examples/memory_market.exe *)

module K = Epcm_kernel
module Engine = Sim_engine
module G = Mgr_generic

let job_pages = 192 (* working set of each job *)
let slice_s = 2.0 (* time slice a job buys at once *)
let horizon_s = 120.0

type job = {
  name : string;
  income : float;
  mutable runs : int;
  mutable compute_s : float;
  mutable refused : int;
  mutable deferred : int;
  mutable swapped_frames : int;
}

let () =
  (* Memory fits one and a half working sets: jobs must take turns. *)
  let machine = Hw_machine.create ~memory_bytes:(300 * 4096) () in
  let kernel = K.create machine in
  let market =
    {
      Spcm_market.default_config with
      charge_rate = 40.0 (* drams per MB-second: memory is expensive *);
      free_when_idle = false;
      savings_tax_rate = 0.005;
      savings_tax_threshold = 50.0;
    }
  in
  let spcm = Spcm.create kernel ~market ~affordability_horizon:slice_s () in
  let jobs =
    [
      { name = "job-hi (income 24)"; income = 24.0; runs = 0; compute_s = 0.0; refused = 0;
        deferred = 0; swapped_frames = 0 };
      { name = "job-mid (income 12)"; income = 12.0; runs = 0; compute_s = 0.0; refused = 0;
        deferred = 0; swapped_frames = 0 };
      { name = "job-lo (income 6)"; income = 6.0; runs = 0; compute_s = 0.0; refused = 0;
        deferred = 0; swapped_frames = 0 };
    ]
  in
  List.iter
    (fun job ->
      Engine.spawn machine.Hw_machine.engine ~name:job.name (fun () ->
          let client = Spcm.register_client ~income:job.income spcm ~name:job.name () in
          (* Each job brings its own application segment manager; its
             frames come from the SPCM under the job's account. *)
          let mgr =
            G.create kernel ~name:(job.name ^ ".mgr") ~mode:`In_process
              ~backing:(Mgr_backing.memory ())
              ~source:(Spcm.source_for spcm client)
              ~pool_capacity:(job_pages + 32) ()
          in
          let seg =
            G.create_segment mgr ~name:(job.name ^ ".data") ~pages:job_pages ~kind:G.Anon ()
          in
          let rec loop () =
            if Engine.time () < horizon_s *. 1_000_000.0 then begin
              (* Save until the slice is affordable, then buy the working
                 set in one request. *)
              let decision = ref Spcm.Deferred in
              ignore
                (Mgr_free_pages.refill (G.pool mgr) ~count:job_pages
                   ~source:(fun ~dst ~dst_page ~count ->
                     decision := Spcm.request spcm ~client ~dst ~dst_page ~count ();
                     match !decision with Spcm.Granted n -> n | _ -> 0));
              match !decision with
              | Spcm.Granted n when n = job_pages ->
                  job.runs <- job.runs + 1;
                  (* Fault the working set in (minimal faults from the
                     pool, or swap-ins after the first cycle). *)
                  for p = 0 to job_pages - 1 do
                    K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Write
                  done;
                  Engine.delay (slice_s *. 1_000_000.0);
                  job.compute_s <- job.compute_s +. slice_s;
                  (* Time slice over: the 2.2 swap protocol pages the job
                     out and returns the frames. *)
                  let released = G.swap_out mgr in
                  job.swapped_frames <- job.swapped_frames + released;
                  Spcm.note_returned spcm ~client ~count:released;
                  Engine.delay 200_000.0;
                  loop ()
              | Spcm.Granted _ ->
                  (* Partial grant: not enough for the working set. *)
                  job.deferred <- job.deferred + 1;
                  let released = G.swap_out mgr in
                  Spcm.note_returned spcm ~client ~count:released;
                  Engine.delay 500_000.0;
                  loop ()
              | Spcm.Deferred ->
                  job.deferred <- job.deferred + 1;
                  Engine.delay 500_000.0;
                  loop ()
              | Spcm.Refused ->
                  (* Cannot afford it yet: keep saving. *)
                  job.refused <- job.refused + 1;
                  Engine.delay 1_000_000.0;
                  loop ()
            end
          in
          loop ()))
    jobs;
  Engine.run ~until:(horizon_s *. 1_000_000.0) machine.Hw_machine.engine;
  Spcm.settle spcm;

  Printf.printf
    "Memory market after %.0f simulated seconds (one %d-page working set at a time):\n\n"
    horizon_s job_pages;
  Printf.printf "%-22s %6s %10s %9s %9s %9s %9s\n" "job" "runs" "compute(s)" "refused"
    "deferred" "swapped" "balance";
  List.iteri
    (fun i job ->
      let account = Spcm.account_of spcm (i + 1) in
      Printf.printf "%-22s %6d %10.1f %9d %9d %9d %9.1f\n" job.name job.runs job.compute_s
        job.refused job.deferred job.swapped_frames account.Spcm_market.balance)
    jobs;
  let hi = List.nth jobs 0 and lo = List.nth jobs 2 in
  Printf.printf
    "\nMachine share follows income (capped by contention): hi/lo compute ratio = %.1f with income ratio %.1f\n"
    (hi.compute_s /. lo.compute_s) (hi.income /. lo.income)
