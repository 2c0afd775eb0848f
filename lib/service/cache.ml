type counters = {
  hits : int;
  misses : int;
  evictions : int;
  races : int;
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
  mutable races : int;
}

let digest g = Digest.to_hex (Digest.string (Cfg.Export.to_spec g))

let create ?(capacity = 128) () =
  { lock = Mutex.create ();
    table = Hashtbl.create 64;
    capacity = max 1 capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    races = 0 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let capacity t = t.capacity
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

(* The build runs outside the lock, so a builder may itself use the cache
   and a domain sharing it is never stalled behind a build. Two builds of
   one key are resolved on insert: the re-check under the lock keeps the
   first value (so all callers share one physically-equal value) and
   counts the discarded build as a race. *)
let find_or_build t key build =
  match find t key with
  | Some v -> v
  | None -> (
    let v = build () in
    with_lock t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some entry ->
          t.races <- t.races + 1;
          touch t entry;
          entry.value
        | None ->
          add_unlocked t key v;
          v))

let set t key value =
  with_lock t (fun () ->
      if Hashtbl.mem t.table key then begin
        (* The find/build/set call sites only store a key right after a
           miss on it, so a live entry here is a duplicate build: count
           it. *)
        t.races <- t.races + 1;
        let entry = { value; last_used = 0 } in
        touch t entry;
        Hashtbl.replace t.table key entry
      end
      else add_unlocked t key value)

let counters t =
  with_lock t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions;
        races = t.races })

let clear t = with_lock t (fun () -> Hashtbl.reset t.table)

let fold f t init =
  with_lock t (fun () ->
      Hashtbl.fold (fun key entry acc -> f key entry.value acc) t.table init)

let pp_counters ppf (c : counters) =
  Fmt.pf ppf "%d hits, %d misses, %d evictions, %d races" c.hits c.misses
    c.evictions c.races

let zero_counters = { hits = 0; misses = 0; evictions = 0; races = 0 }

let sum_counters cs =
  List.fold_left
    (fun (acc : counters) (c : counters) : counters ->
      { hits = acc.hits + c.hits;
        misses = acc.misses + c.misses;
        evictions = acc.evictions + c.evictions;
        races = acc.races + c.races })
    zero_counters cs

module Sharded = struct
  type 'a shard = 'a t
  type 'a t = 'a shard array

  let create ?(shards = 1) ?(capacity = 128) () =
    let shards = max 1 shards in
    let per_shard = max 1 ((capacity + shards - 1) / shards) in
    Array.init shards (fun _ -> create ~capacity:per_shard ())

  let shard_for t key = t.(Hashtbl.hash key mod Array.length t)
  let shards t = Array.length t
  let find t key = find (shard_for t key) key
  let find_or_build t key build = find_or_build (shard_for t key) key build
  let set t key value = set (shard_for t key) key value
  let length t = Array.fold_left (fun n s -> n + length s) 0 t
  let counters t = Array.to_list (Array.map counters t)

  let fold f t init =
    Array.fold_left (fun acc shard -> fold f shard acc) init t

  let clear t = Array.iter clear t
end
