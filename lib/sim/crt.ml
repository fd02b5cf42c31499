(* Shared runtime of the compiled engines: the model lowering, ring-buffered
   channel state, closure-free guard predicates over channel indexes, the
   int-coded event scheme, the per-run state, the step functions and the
   event loop.  {!Compile} runs one lowered model through the loop;
   {!Family_compiled} runs every sub-family through it, with presence
   bookkeeping entering through two hooks. *)

module I = Spi.Ids

(* Ring-buffered channel contents.  Registers keep at most one token
   (destructive write); queues are FIFO with amortized O(1) push/pop. *)
type cstate = {
  mutable buf : Spi.Token.t array;
  mutable head : int;
  mutable count : int;
}

let dummy_token = Spi.Token.plain

let make_chan init =
  let n = List.length init in
  let buf = Array.make (max 4 n) dummy_token in
  List.iteri (fun k tok -> buf.(k) <- tok) init;
  { buf; head = 0; count = n }

let copy_chan cs = { buf = Array.copy cs.buf; head = cs.head; count = cs.count }

let ring_grow cs =
  let cap = Array.length cs.buf in
  let buf = Array.make (2 * cap) dummy_token in
  for k = 0 to cs.count - 1 do
    buf.(k) <- cs.buf.((cs.head + k) mod cap)
  done;
  cs.buf <- buf;
  cs.head <- 0

let ring_push cs tok =
  if cs.count = Array.length cs.buf then ring_grow cs;
  cs.buf.((cs.head + cs.count) mod Array.length cs.buf) <- tok;
  cs.count <- cs.count + 1

let ring_pop cs =
  let tok = cs.buf.(cs.head) in
  cs.buf.(cs.head) <- dummy_token;
  cs.head <- (cs.head + 1) mod Array.length cs.buf;
  cs.count <- cs.count - 1;
  tok

let contents cs =
  List.init cs.count (fun k -> cs.buf.((cs.head + k) mod Array.length cs.buf))

(* Activation guards over channel indexes.  A channel the model does not
   declare compiles to index -1: it holds no tokens and no tags, exactly
   like the interpreter's view of an absent channel. *)
type gpred =
  | G_true
  | G_false
  | G_num_at_least of int * int  (** channel index, threshold *)
  | G_first_has_tag of int * Spi.Tag.t
  | G_and of gpred * gpred
  | G_or of gpred * gpred
  | G_not of gpred

type crule = { guard : gpred; target : int  (** mode index; -1 unknown *) }

type ccons = {
  c_ix : int;  (** channel index; -1 when the model lacks the channel *)
  c_cid : I.Channel_id.t;
  c_rate : Interval.t;
}

type cprod = {
  p_ix : int;
  p_cid : I.Channel_id.t;
  p_rate : Interval.t;
  p_tags : Spi.Tag.Set.t;
  p_plain : Spi.Token.t;
      (* the token this production writes when no payload is inherited,
         built once so such a firing allocates no token *)
}

let rec compile_pred ~ix_of = function
  | Spi.Predicate.True -> G_true
  | Spi.Predicate.False -> G_false
  | Spi.Predicate.Atom (Spi.Predicate.Num_at_least (cid, k)) ->
    G_num_at_least (ix_of cid, k)
  | Spi.Predicate.Atom (Spi.Predicate.First_has_tag (cid, tag)) ->
    G_first_has_tag (ix_of cid, tag)
  | Spi.Predicate.And (a, b) ->
    G_and (compile_pred ~ix_of a, compile_pred ~ix_of b)
  | Spi.Predicate.Or (a, b) ->
    G_or (compile_pred ~ix_of a, compile_pred ~ix_of b)
  | Spi.Predicate.Not a -> G_not (compile_pred ~ix_of a)

let rec eval chans = function
  | G_true -> true
  | G_false -> false
  | G_num_at_least (ix, k) -> (if ix < 0 then 0 else chans.(ix).count) >= k
  | G_first_has_tag (ix, tag) ->
    ix >= 0
    && chans.(ix).count > 0
    && Spi.Tag.Set.mem tag (Spi.Token.tags chans.(ix).buf.(chans.(ix).head))
  | G_and (a, b) -> eval chans a && eval chans b
  | G_or (a, b) -> eval chans a || eval chans b
  | G_not a -> not (eval chans a)

(* Event coding: [4*k] injection #k, [4*p+1] completion of process p,
   [4*p+2] recovery of process p, [4*k+3] scripted crash #k. *)
let ev_inject k = 4 * k
let ev_complete p = (4 * p) + 1
let ev_recover p = (4 * p) + 2
let ev_crash k = (4 * k) + 3

(* ------------------------------ lowering ------------------------------ *)

type cmode = {
  cm_mid : I.Mode_id.t;
  cm_latency : Interval.t;
  cm_consumes : ccons array;  (** in {!Spi.Mode.consumptions} order *)
  cm_produces : cprod array;  (** in {!Spi.Mode.productions} order *)
  cm_inherit : bool;
  cm_conf : int;  (** owning configuration index; -1 shared / none *)
}

(* A process's configuration set: ids, latencies and degradation masks
   resolved to dense indexes. *)
type cconf = {
  cf_ids : I.Config_id.t array;  (** in declaration order *)
  cf_latency : int array;
  cf_initial : int;  (** -1 when the set declares no initial *)
  cf_masks : bool array array;
      (** [cf_masks.(c).(m)]: may mode [m] still fire once degraded to
          configuration [c] (the configuration's own modes plus modes
          outside every configuration) *)
  cf_shared_mask : bool array;
      (** modes outside every configuration — the mask for a fallback
          target the set does not know *)
  cf_index : int I.Config_id.Tbl.t;
}

type cproc = {
  pr_pid : I.Process_id.t;
  pr_source : bool;
  pr_rules : crule array;
  pr_modes : cmode array;
  pr_conf : cconf option;
}

type table = {
  model : Spi.Model.t;
  procs : cproc array;
  proc_index : int I.Process_id.Tbl.t;
  chan_ids : I.Channel_id.t array;
  chan_register : bool array;
  chan_cap : int array;
  chan_initial : Spi.Token.t list array;
  chan_index : int I.Channel_id.Tbl.t;
  chan_reader : int array;
}

let find_ix index cid =
  match I.Channel_id.Tbl.find_opt index cid with Some i -> i | None -> -1

let chan_ix tbl = find_ix tbl.chan_index

let lower_conf modes c =
  let entries = Array.of_list (Variants.Configuration.entries c) in
  let n = Array.length entries in
  let cf_ids =
    Array.map (fun (e : Variants.Configuration.entry) -> e.config_id) entries
  in
  let cf_latency =
    Array.map (fun (e : Variants.Configuration.entry) -> e.reconf_latency) entries
  in
  let cf_index = I.Config_id.Tbl.create (max 8 n) in
  Array.iteri (fun i id -> I.Config_id.Tbl.replace cf_index id i) cf_ids;
  let cf_initial =
    match Variants.Configuration.start c with
    | None -> -1
    | Some id -> Option.value ~default:(-1) (I.Config_id.Tbl.find_opt cf_index id)
  in
  let cf_shared_mask =
    Array.map
      (fun m ->
        Option.is_none (Variants.Configuration.config_of_mode (Spi.Mode.id m) c))
      modes
  in
  let cf_masks =
    Array.init n (fun ci ->
        let entry_modes = entries.(ci).Variants.Configuration.modes in
        Array.mapi
          (fun mi m ->
            cf_shared_mask.(mi) || I.Mode_id.Set.mem (Spi.Mode.id m) entry_modes)
          modes)
  in
  { cf_ids; cf_latency; cf_initial; cf_masks; cf_shared_mask; cf_index }

let lower ?(configurations = []) model =
  let chan_decls = Array.of_list (Spi.Model.channels model) in
  let chan_index = I.Channel_id.Tbl.create (max 16 (Array.length chan_decls)) in
  Array.iteri
    (fun i c -> I.Channel_id.Tbl.replace chan_index (Spi.Chan.id c) i)
    chan_decls;
  let ix_of = find_ix chan_index in
  let lower_proc p =
    let pid = Spi.Process.id p in
    let modes = Array.of_list (Spi.Process.modes p) in
    let mode_index = I.Mode_id.Tbl.create (max 8 (Array.length modes)) in
    Array.iteri
      (fun i m -> I.Mode_id.Tbl.replace mode_index (Spi.Mode.id m) i)
      modes;
    let conf =
      List.find_opt
        (fun c -> I.Process_id.equal (Variants.Configuration.process c) pid)
        configurations
    in
    let cconf = Option.map (lower_conf modes) conf in
    let conf_of m =
      match (conf, cconf) with
      | Some c, Some cf -> (
        match Variants.Configuration.config_of_mode (Spi.Mode.id m) c with
        | None -> -1
        | Some cfg ->
          Option.value ~default:(-1) (I.Config_id.Tbl.find_opt cf.cf_index cfg))
      | _ -> -1
    in
    let cmodes =
      Array.map
        (fun m ->
          {
            cm_mid = Spi.Mode.id m;
            cm_latency = Spi.Mode.latency m;
            cm_consumes =
              Array.of_list
                (List.map
                   (fun (cid, rate) -> { c_ix = ix_of cid; c_cid = cid; c_rate = rate })
                   (Spi.Mode.consumptions m));
            cm_produces =
              Array.of_list
                (List.map
                   (fun (cid, (prod : Spi.Mode.production)) ->
                     {
                       p_ix = ix_of cid;
                       p_cid = cid;
                       p_rate = prod.rate;
                       p_tags = prod.tags;
                       p_plain = Spi.Token.make ~tags:prod.tags ();
                     })
                   (Spi.Mode.productions m));
            cm_inherit =
              (match Spi.Mode.payload_policy m with
              | Spi.Mode.Inherit_first -> true
              | Spi.Mode.Fresh -> false);
            cm_conf = conf_of m;
          })
        modes
    in
    let rules =
      Array.of_list
        (List.map
           (fun r ->
             {
               guard = compile_pred ~ix_of (Spi.Activation.guard r);
               target =
                 Option.value ~default:(-1)
                   (I.Mode_id.Tbl.find_opt mode_index (Spi.Activation.target_mode r));
             })
           (Spi.Activation.rules (Spi.Process.activation p)))
    in
    {
      pr_pid = pid;
      pr_source = I.Channel_id.Set.is_empty (Spi.Process.inputs p);
      pr_rules = rules;
      pr_modes = cmodes;
      pr_conf = cconf;
    }
  in
  let procs = Array.of_list (List.map lower_proc (Spi.Model.processes model)) in
  let proc_index = I.Process_id.Tbl.create (max 16 (Array.length procs)) in
  Array.iteri (fun i cp -> I.Process_id.Tbl.replace proc_index cp.pr_pid i) procs;
  let chan_ids = Array.map Spi.Chan.id chan_decls in
  {
    model;
    procs;
    proc_index;
    chan_ids;
    chan_register =
      Array.map (fun c -> Spi.Chan.kind c = Spi.Chan.Register) chan_decls;
    chan_cap =
      Array.map (fun c -> Option.value ~default:(-1) (Spi.Chan.capacity c)) chan_decls;
    chan_initial = Array.map Spi.Chan.initial chan_decls;
    chan_index;
    chan_reader =
      Array.map
        (fun cid ->
          match Spi.Model.reader_of cid model with
          | Some pid -> I.Process_id.Tbl.find proc_index pid
          | None -> -1)
        chan_ids;
  }

(* ------------------------------ run state ----------------------------- *)

(* The policy realizes every interval once per run, so the loop reads
   plain ints instead of resolving intervals per firing. *)
type dispatch = {
  lat : int array array;  (** [lat.(p).(m)] *)
  want : int array array array;  (** [want.(p).(m).(k)], per consumption *)
  nprod : int array array array;  (** [nprod.(p).(m).(k)], per production *)
}

let dispatch policy tbl =
  let choose = Engine.pick policy in
  let per_mode f = Array.map (fun cp -> Array.map f cp.pr_modes) tbl.procs in
  {
    lat = per_mode (fun m -> choose m.cm_latency);
    want = per_mode (fun m -> Array.map (fun c -> choose c.c_rate) m.cm_consumes);
    nprod = per_mode (fun m -> Array.map (fun p -> choose p.p_rate) m.cm_produces);
  }

type pstate = {
  mutable busy : bool;
  mutable budget : int;
  mutable conf_ix : int;
  mutable conf_id : I.Config_id.t option;
  mutable allowed : bool array option;
  mutable recover_at : int;
  (* The pending-completion slot: [busy] serializes a process's
     executions, so at most one Complete event per process is in flight
     and its payload needs no allocation on the heap. *)
  mutable slot_mode : int;
  mutable slot_started : int;
  mutable slot_payload : int option;
  mutable slot_consumed : (I.Channel_id.t * Spi.Token.t list) list;
}

let budget ~firing_budget pid ~source =
  match List.find_opt (fun (q, _) -> I.Process_id.equal q pid) firing_budget with
  | Some (_, n) -> n
  | None -> if source then 0 else -1

let fresh_pstate ~firing_budget cp =
  let conf_ix, conf_id =
    match cp.pr_conf with
    | Some cf when cf.cf_initial >= 0 -> (cf.cf_initial, Some cf.cf_ids.(cf.cf_initial))
    | Some _ | None -> (-1, None)
  in
  {
    busy = false;
    budget = budget ~firing_budget cp.pr_pid ~source:cp.pr_source;
    conf_ix;
    conf_id;
    allowed = None;
    recover_at = 0;
    slot_mode = -1;
    slot_started = 0;
    slot_payload = None;
    slot_consumed = [];
  }

type pool = {
  mutable items : (I.Channel_id.t * Spi.Token.t) array;
  mutable len : int;
}

type run = {
  tbl : table;
  dsp : dispatch;
  chans : cstate array;
  pstates : pstate array;
  heap : Heap.Int_heap.t;
  fstate : Fault.state option;
  overflow : Spi.Semantics.overflow;
  pool : pool;
  crashes : I.Process_id.t array;
  record : bool;
  mutable frozen : bool array;
  woken : bool array;
  wake : int array;
  mutable nwake : int;
  changed : bool array;
  mutable trace : Trace.entry list;
  mutable firings : int;
  mutable now : int;
  mutable reconf_time : int;
  mutable makespan : int;
}

let add_inject pool item =
  if pool.len = Array.length pool.items then begin
    let items = Array.make (max 16 (2 * pool.len)) item in
    Array.blit pool.items 0 items 0 pool.len;
    pool.items <- items
  end;
  pool.items.(pool.len) <- item;
  pool.len <- pool.len + 1;
  pool.len - 1

let start ~record ~overflow ~stimuli ~firing_budget ?faults tbl dsp =
  let heap = Heap.Int_heap.create () in
  let pool = { items = [||]; len = 0 } in
  List.iter
    (fun (s : Engine.stimulus) ->
      Heap.Int_heap.push ~time:s.at
        (ev_inject (add_inject pool (s.channel, s.token)))
        heap)
    stimuli;
  let fstate = Option.map Fault.start faults in
  let crashes =
    match fstate with
    | None -> [||]
    | Some fs ->
      let schedule = Array.of_list (Fault.crash_schedule fs) in
      Array.iteri (fun k (_, at) -> Heap.Int_heap.push ~time:at (ev_crash k) heap) schedule;
      Array.map fst schedule
  in
  {
    tbl;
    dsp;
    chans = Array.map make_chan tbl.chan_initial;
    pstates = Array.map (fresh_pstate ~firing_budget) tbl.procs;
    heap;
    fstate;
    overflow;
    pool;
    crashes;
    record;
    frozen = Array.make (Array.length tbl.procs) false;
    woken = Array.make (Array.length tbl.procs) false;
    wake = Array.make (Array.length tbl.procs) 0;
    nwake = 0;
    changed = Array.make (Array.length tbl.chan_ids) false;
    trace = [];
    firings = 0;
    now = 0;
    reconf_time = 0;
    makespan = 0;
  }

(* A family split's sibling of [r]: the given tables and state, a copy of
   the fault state, the shared pools and counters, and its own wake set
   and change marks (siblings run on other domains). *)
let fork r ~tbl ~dsp ~chans ~pstates ~heap ~frozen =
  let nprocs = Array.length tbl.procs in
  {
    r with
    tbl;
    dsp;
    chans;
    pstates;
    heap;
    fstate = Option.map Fault.copy r.fstate;
    frozen;
    woken = Array.make nprocs false;
    wake = Array.make nprocs 0;
    nwake = 0;
    changed = Array.make (Array.length tbl.chan_ids) false;
  }

(* ------------------------------ wake set ------------------------------ *)

(* The sweep visits only woken processes.  [Model.build] allows one
   reader per channel, guard channels included, so an event can enable
   only the reader of a channel it wrote and a process whose [busy] it
   cleared; every other process is as disabled as at its last visit. *)
let wake r ix =
  if ix >= 0 && not r.woken.(ix) then begin
    r.woken.(ix) <- true;
    r.wake.(r.nwake) <- ix;
    r.nwake <- r.nwake + 1
  end

let wake_all r =
  for ix = 0 to Array.length r.woken - 1 do
    wake r ix
  done

let set_frozen r frozen =
  r.frozen <- frozen;
  wake_all r

(* ---------------------------- step functions -------------------------- *)

(* Hot-path entries (starts, completions, injections) are built only
   under [if r.record]; rare fault entries go through the same test
   here. *)
let emit r e = if r.record then r.trace <- e :: r.trace

(* One channel write with the reference semantics: destructive on
   registers; a full bounded queue raises under [Reject] and discards
   the token under [Drop_newest]. *)
let write r ix tok =
  let cs = r.chans.(ix) in
  r.changed.(ix) <- true;
  wake r r.tbl.chan_reader.(ix);
  if r.tbl.chan_register.(ix) then begin
    cs.buf.(0) <- tok;
    cs.head <- 0;
    cs.count <- 1
  end
  else begin
    let c = r.tbl.chan_cap.(ix) in
    if c >= 0 && cs.count >= c then begin
      match r.overflow with
      | Spi.Semantics.Reject ->
        raise (Spi.Semantics.Channel_overflow r.tbl.chan_ids.(ix))
      | Spi.Semantics.Drop_newest -> ()
    end
    else ring_push cs tok
  end

let back_off r now ix latency =
  let ps = r.pstates.(ix) in
  let until = now + max 1 latency in
  ps.busy <- true;
  ps.recover_at <- until;
  Heap.Int_heap.push ~time:until (ev_recover ix) r.heap

(* [Fault.should_degrade] is false without a degradation plan, so this
   is a no-op for family runs, which reject such plans. *)
let degrade r now pid =
  match r.fstate with
  | None -> ()
  | Some fs ->
    if Fault.should_degrade fs pid then begin
      match (Fault.plan_of fs).Fault.degrade with
      | None -> ()
      | Some d -> (
        let ix = I.Process_id.Tbl.find r.tbl.proc_index pid in
        let ps = r.pstates.(ix) in
        let from_ = ps.conf_id in
        match d.Fault.fallback pid from_ with
        | None -> ()
        | Some target
          when (match from_ with
               | Some cur -> not (I.Config_id.equal cur target)
               | None -> true) ->
          let cp = r.tbl.procs.(ix) in
          let latency, target_ix =
            match cp.pr_conf with
            | Some cf -> (
              match I.Config_id.Tbl.find_opt cf.cf_index target with
              | Some ti -> (cf.cf_latency.(ti), ti)
              | None -> (0, -2))
            | None -> (0, -1)
          in
          r.reconf_time <- r.reconf_time + latency;
          ps.conf_ix <- target_ix;
          ps.conf_id <- Some target;
          (match cp.pr_conf with
          | Some cf ->
            ps.allowed <-
              Some (if target_ix >= 0 then cf.cf_masks.(target_ix) else cf.cf_shared_mask)
          | None -> ());
          Fault.mark_degraded fs pid;
          emit r
            (Trace.Faulted
               {
                 time = now;
                 fault = Fault.Degraded { process = pid; from_; to_ = target; latency };
               });
          List.iter
            (fun item ->
              Heap.Int_heap.push ~time:now (ev_inject (add_inject r.pool item)) r.heap)
            (d.Fault.recovery_stimuli pid target);
          back_off r now ix latency
        | Some _ -> ())
    end

(* Takes a starting firing's tokens off its input rings, in consumption
   order, into [ps]'s slot: the payload an inheriting mode passes on
   (the first among the tokens) and, when recording, the tokens per
   channel for the [Completed] entry. *)
let consume r ps p_ix m_ix cm =
  let wants = r.dsp.want.(p_ix).(m_ix) in
  let payload = ref None in
  let consumed = ref [] in
  for k = 0 to Array.length cm.cm_consumes - 1 do
    let c = cm.cm_consumes.(k) in
    let wanted = wants.(k) in
    let toks = ref [] in
    if c.c_ix >= 0 && wanted > 0 then begin
      let cs = r.chans.(c.c_ix) in
      r.changed.(c.c_ix) <- true;
      let n = if wanted < cs.count then wanted else cs.count in
      (* a register is a sampling read: it keeps its one token *)
      let register = r.tbl.chan_register.(c.c_ix) in
      for _ = 1 to (if register then min n 1 else n) do
        let tok = if register then cs.buf.(cs.head) else ring_pop cs in
        if Option.is_none !payload then payload := Spi.Token.payload tok;
        if r.record then toks := tok :: !toks
      done
    end;
    if r.record then consumed := (c.c_cid, List.rev !toks) :: !consumed
  done;
  ps.slot_payload <- (if cm.cm_inherit then !payload else None);
  ps.slot_consumed <- List.rev !consumed

(* One scheduling sweep: the woken processes in index order, the order
   in which a sweep over every process would act on them, each skipped
   if [frozen].  A visit wakes nobody: starting a firing only consumes
   from the process's own inputs, and a back-off only sets its [busy]. *)
let sweep r now =
  let tbl = r.tbl in
  let w = r.wake in
  let n = r.nwake in
  for i = 1 to n - 1 do
    let x = w.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && w.(!j) > x do
      w.(!j + 1) <- w.(!j);
      decr j
    done;
    w.(!j + 1) <- x
  done;
  for k = 0 to n - 1 do
    let ix = w.(k) in
    r.woken.(ix) <- false;
    let cp = tbl.procs.(ix) in
    let ps = r.pstates.(ix) in
    let may_fire =
      (not r.frozen.(ix))
      && (not ps.busy)
      && ps.budget <> 0
      && match r.fstate with
         | Some fs -> not (Fault.crashed fs cp.pr_pid)
         | None -> true
    in
    if may_fire then begin
      (* First enabled rule; under a degradation mask, the first
         enabled rule whose target mode survives the mask. *)
      let nrules = Array.length cp.pr_rules in
      let chosen = ref (-1) in
      let i = ref 0 in
      (match ps.allowed with
      | None ->
        while !chosen < 0 && !i < nrules do
          if eval r.chans cp.pr_rules.(!i).guard then chosen := !i;
          incr i
        done
      | Some mask ->
        while !chosen < 0 && !i < nrules do
          let rule = cp.pr_rules.(!i) in
          if eval r.chans rule.guard && rule.target >= 0 && mask.(rule.target) then
            chosen := !i;
          incr i
        done);
      if !chosen >= 0 && cp.pr_rules.(!chosen).target >= 0 then begin
        let m_ix = cp.pr_rules.(!chosen).target in
        let cm = cp.pr_modes.(m_ix) in
        (* Configuration transition this activation would take —
           committed only if the firing actually starts. *)
        let reconfigure, r_target_ix, r_latency =
          match cp.pr_conf with
          | None -> (false, -1, 0)
          | Some cf ->
            if cm.cm_conf < 0 || ps.conf_ix = cm.cm_conf then (false, -1, 0)
            else (true, cm.cm_conf, cf.cf_latency.(cm.cm_conf))
        in
        let aborted =
          reconfigure
          &&
          match r.fstate with
          | Some fs -> Fault.reconf_fails fs ~time:now cp.pr_pid
          | None -> false
        in
        if aborted then begin
          let cf = Option.get cp.pr_conf in
          let target = cf.cf_ids.(r_target_ix) in
          r.reconf_time <- r.reconf_time + r_latency;
          emit r
            (Trace.Faulted
               {
                 time = now;
                 fault =
                   Fault.Reconfiguration_failed
                     { process = cp.pr_pid; target; latency = r_latency };
               });
          (match r.fstate with
          | Some fs -> Fault.note_failure fs cp.pr_pid
          | None -> ());
          back_off r now ix r_latency;
          degrade r now cp.pr_pid
        end
        else begin
          let attempt =
            match r.fstate with
            | None -> Fault.Proceed { overrun = None }
            | Some fs -> Fault.on_attempt fs ~time:now cp.pr_pid cm.cm_mid
          in
          match attempt with
          | Fault.Retry { retry; backoff } ->
            emit r
              (Trace.Faulted
                 {
                   time = now;
                   fault =
                     Fault.Transient_failure
                       { process = cp.pr_pid; mode = cm.cm_mid; retry; backoff };
                 });
            back_off r now ix backoff;
            degrade r now cp.pr_pid
          | Fault.Exhausted ->
            emit r
              (Trace.Faulted
                 {
                   time = now;
                   fault = Fault.Retries_exhausted { process = cp.pr_pid; mode = cm.cm_mid };
                 });
            degrade r now cp.pr_pid
          | Fault.Proceed { overrun } ->
            let reconfiguration =
              if not reconfigure then None
              else begin
                let cf = Option.get cp.pr_conf in
                let target = cf.cf_ids.(r_target_ix) in
                ps.conf_ix <- r_target_ix;
                ps.conf_id <- Some target;
                Some (target, r_latency)
              end
            in
            consume r ps ix m_ix cm;
            let reconf_latency =
              match reconfiguration with None -> 0 | Some (_, l) -> l
            in
            r.reconf_time <- r.reconf_time + reconf_latency;
            let extra = Option.value ~default:0 overrun in
            let latency = reconf_latency + r.dsp.lat.(ix).(m_ix) + extra in
            ps.busy <- true;
            if ps.budget > 0 then ps.budget <- ps.budget - 1;
            r.firings <- r.firings + 1;
            if r.record then
              emit r
                (Trace.Started
                   { time = now; process = cp.pr_pid; mode = cm.cm_mid; reconfiguration });
            (match overrun with
            | Some extra ->
              emit r
                (Trace.Faulted
                   {
                     time = now;
                     fault =
                       Fault.Latency_overrun { process = cp.pr_pid; mode = cm.cm_mid; extra };
                   })
            | None -> ());
            ps.slot_mode <- m_ix;
            ps.slot_started <- now;
            Heap.Int_heap.push ~time:(now + latency) (ev_complete ix) r.heap
        end
      end
    end
  done;
  r.nwake <- 0

let deliver r time cid tok =
  (match I.Channel_id.Tbl.find_opt r.tbl.chan_index cid with
  | Some ix -> write r ix tok
  | None ->
    (* the interpreter's [Semantics.inject] raises [Not_found] on a
       channel the model does not declare *)
    ignore (Spi.Model.get_channel cid r.tbl.model));
  if r.record then emit r (Trace.Injected { time; channel = cid; token = tok })

let inject r time cid tok =
  let outcome =
    match r.fstate with
    | None -> Fault.Deliver
    | Some fs -> Fault.on_token fs ~time cid tok
  in
  match outcome with
  | Fault.Deliver -> deliver r time cid tok
  | Fault.Dropped ->
    emit r
      (Trace.Faulted { time; fault = Fault.Token_dropped { channel = cid; token = tok } })
  | Fault.Corrupted tok' ->
    emit r
      (Trace.Faulted { time; fault = Fault.Token_corrupted { channel = cid; token = tok' } });
    deliver r time cid tok'
  | Fault.Duplicated ->
    emit r
      (Trace.Faulted { time; fault = Fault.Token_duplicated { channel = cid; token = tok } });
    deliver r time cid tok;
    deliver r time cid tok

let complete r time ix =
  let cp = r.tbl.procs.(ix) in
  let ps = r.pstates.(ix) in
  let m_ix = ps.slot_mode in
  let cm = cp.pr_modes.(m_ix) in
  let ns = r.dsp.nprod.(ix).(m_ix) in
  let produced = ref [] in
  for k = 0 to Array.length cm.cm_produces - 1 do
    let pr = cm.cm_produces.(k) in
    let n = ns.(k) in
    let tok =
      match ps.slot_payload with
      | None -> pr.p_plain
      | Some payload -> Spi.Token.make ~tags:pr.p_tags ~payload ()
    in
    if n > 0 then
      if pr.p_ix < 0 then ignore (Spi.Model.get_channel pr.p_cid r.tbl.model)
      else for _ = 1 to n do write r pr.p_ix tok done;
    if r.record then produced := (pr.p_cid, Spi.Token.replicate n tok) :: !produced
  done;
  if ps.recover_at = 0 then begin
    ps.busy <- false;
    wake r ix
  end;
  (* event times never decrease, so the latest completion is this one *)
  r.makespan <- time;
  if r.record then begin
    let firing =
      {
        Spi.Semantics.process = cp.pr_pid;
        mode = cm.cm_mid;
        consumed = ps.slot_consumed;
        produced = List.rev !produced;
      }
    in
    emit r (Trace.Completed { time; started_at = ps.slot_started; process = cp.pr_pid; firing });
    ps.slot_consumed <- []
  end

let recover r time ix =
  let ps = r.pstates.(ix) in
  if ps.recover_at <= time then begin
    ps.recover_at <- 0;
    ps.busy <- false;
    wake r ix
  end

let crash r time k =
  let pid = r.crashes.(k) in
  match r.fstate with
  | Some fs when not (Fault.crashed fs pid) ->
    Fault.mark_crashed fs pid;
    Fault.note_failure fs pid;
    emit r (Trace.Faulted { time; fault = Fault.Crashed { process = pid } });
    degrade r time pid
  | Some _ | None -> ()

(* ------------------------------ the loop ------------------------------ *)

exception Deadline_exceeded

(* The wall clock is read on entry and then once every 1024 events, a
   [land] per event in between; without a deadline it is never read. *)
let loop ?(settle = ignore) ?inject:route ?deadline_ns ~limits r =
  let route = match route with Some f -> f | None -> inject r in
  let expired () =
    match deadline_ns with Some dl -> Obs.Clock.now_ns () >= dl | None -> false
  in
  if expired () then raise Deadline_exceeded;
  wake_all r;
  settle ();
  sweep r r.now;
  let rec go events =
    if r.firings > limits.Engine.max_firings then Engine.Firing_limit_reached
    else if Heap.Int_heap.is_empty r.heap then begin
      emit r (Trace.Quiescent { time = r.now });
      Engine.Quiescent
    end
    else begin
      let time = Heap.Int_heap.min_time r.heap in
      if time > limits.Engine.max_time then Engine.Time_limit_reached
      else begin
        if events land 1023 = 0 && expired () then raise Deadline_exceeded;
        let v = Heap.Int_heap.min_value r.heap in
        Heap.Int_heap.drop_min r.heap;
        r.now <- time;
        (match v land 3 with
        | 0 ->
          let cid, tok = r.pool.items.(v lsr 2) in
          route time cid tok
        | 1 -> complete r time (v lsr 2)
        | 2 -> recover r time (v lsr 2)
        | _ -> crash r time (v lsr 2));
        settle ();
        sweep r time;
        go (events + 1)
      end
    end
  in
  go 1
