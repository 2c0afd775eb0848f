type t =
  | Terminal of int
  | Nonterminal of int

let equal a b =
  match a, b with
  | Terminal i, Terminal j | Nonterminal i, Nonterminal j -> i = j
  | Terminal _, Nonterminal _ | Nonterminal _, Terminal _ -> false

let compare a b =
  match a, b with
  | Terminal i, Terminal j | Nonterminal i, Nonterminal j -> Int.compare i j
  | Terminal _, Nonterminal _ -> -1
  | Nonterminal _, Terminal _ -> 1

let hash = function
  | Terminal i -> (2 * i) + 1
  | Nonterminal i -> 2 * i

let is_terminal = function Terminal _ -> true | Nonterminal _ -> false

let eof = Terminal 0
