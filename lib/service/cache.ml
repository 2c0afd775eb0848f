type counters = {
  hits : int;
  misses : int;
  evictions : int;
}

type 'a entry = {
  value : 'a;
  mutable last_used : int;  (* tick of the most recent access *)
}

type 'a t = {
  lock : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let digest g = Digest.to_hex (Digest.string (Cfg.Export.to_spec g))

let create ?(capacity = 128) () =
  { lock = Mutex.create ();
    table = Hashtbl.create 64;
    capacity = max 1 capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = with_lock t (fun () -> Hashtbl.length t.table)

let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_used <- t.tick

(* Unlocked internals, composed under a single lock acquisition. *)

let find_unlocked t key =
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    t.hits <- t.hits + 1;
    touch t entry;
    Some entry.value
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_lru_unlocked t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.last_used <= entry.last_used -> acc
        | _ -> Some (key, entry))
      t.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1
  | None -> ()

let add_unlocked t key value =
  if Hashtbl.length t.table >= t.capacity then evict_lru_unlocked t;
  let entry = { value; last_used = 0 } in
  touch t entry;
  Hashtbl.replace t.table key entry

let find t key = with_lock t (fun () -> find_unlocked t key)

let peek t key =
  with_lock t (fun () ->
      Option.map (fun entry -> entry.value) (Hashtbl.find_opt t.table key))

(* Removing a live entry first keeps its replacement from evicting
   another. *)
let set t key value =
  with_lock t (fun () ->
      Hashtbl.remove t.table key;
      add_unlocked t key value)

let counters t =
  with_lock t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions })

let fold f t init =
  with_lock t (fun () ->
      Hashtbl.fold (fun key entry acc -> f key entry.value acc) t.table init)

let pp_counters ppf (c : counters) =
  Fmt.pf ppf "%d hits, %d misses, %d evictions" c.hits c.misses c.evictions
