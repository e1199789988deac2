(** Static and dynamic evaluation contexts.

    The dynamic context is deliberately explicit about the two hooks that
    make XRPC pluggable: [doc_resolver] (how [fn:doc] finds documents —
    local database or data shipping over the network) and [dispatcher] (how
    [execute at] reaches remote peers — simulated network, real HTTP, or a
    test stub).  [rpc_mode] switches between the paper's loop-lifted Bulk
    RPC and the one-at-a-time comparison mode of Table 2. *)

open Xrpc_xml
module Message = Xrpc_soap.Message

module Var_map = Map.Make (String)

let var_key (q : Qname.t) = q.Qname.uri ^ "}" ^ q.Qname.local

(** A user-defined function together with the module that owns it (needed to
    build XRPC requests naming that module). *)
type func = {
  decl : Ast.function_decl;
  fn_module_uri : string;
  fn_location : string;  (** at-hint where the module source lives *)
}

type func_key = string * string * int (* uri, local, arity *)

(** How loop-dependent [execute at] applications reach the wire:
    [Rpc_bulk] is the paper's loop-lifted Bulk RPC; [Rpc_singles] the
    one-message-per-call comparison mode of Table 2. *)
type rpc_mode = Rpc_bulk | Rpc_singles

let rpc_mode_name = function
  | Rpc_bulk -> "bulk"
  | Rpc_singles -> "singles"

(** How [execute at] reaches the network.  [call] performs one
    (possibly bulk) request; [call_parallel] dispatches several requests to
    distinct peers "at the same time" — a simulated transport charges the
    maximum rather than the sum of their latencies (§3.2, Parallel &
    Out-Of-Order). *)
type dispatcher = {
  call : dest:string -> Message.request -> Message.t;
  call_parallel : (string * Message.request) list -> Message.t list;
}

let sequential_dispatcher call =
  { call; call_parallel = List.map (fun (dest, req) -> call ~dest req) }

type t = {
  vars : Xdm.sequence Var_map.t;
  ctx_item : Xdm.item option;
  ctx_pos : int;
  ctx_size : int;
  funcs : (func_key, func) Hashtbl.t;
  imports : (string * string) list ref;  (** module uri -> at-hint *)
  doc_resolver : string -> Store.t;
  dispatcher : dispatcher option;
  dest_resolver : (string -> string) option;
      (** rewrite [execute at] destinations before dispatch — the hook a
          shard router installs to turn a virtual [xrpc://shard/<key>]
          destination into the URI of a live peer holding that key *)
  pul : Update.pul ref;
  options : (string * string) list ref;  (** expanded name -> value *)
  query_id : Message.query_id option;
  rpc_mode : rpc_mode;
  fragments : bool;
      (** footnote-4 extension: ship descendant node parameters as
          [xrpc:nodeid] references (preserves ancestor relationships) *)
  call_depth : int;
}

let empty () =
  {
    vars = Var_map.empty;
    ctx_item = None;
    ctx_pos = 0;
    ctx_size = 0;
    funcs = Hashtbl.create 16;
    imports = ref [];
    doc_resolver = Xdm.no_such_document;
    dispatcher = None;
    dest_resolver = None;
    pul = ref [];
    options = ref [];
    query_id = None;
    rpc_mode = Rpc_bulk;
    fragments = false;
    call_depth = 0;
  }

let bind_var ctx q v = { ctx with vars = Var_map.add (var_key q) v ctx.vars }

let lookup_var ctx q =
  match Var_map.find_opt (var_key q) ctx.vars with
  | Some v -> v
  | None -> Xdm.dyn_error "XPST0008: undefined variable $%s" (Qname.to_string q)

let with_context_item ctx item pos size =
  { ctx with ctx_item = Some item; ctx_pos = pos; ctx_size = size }

let context_node ctx =
  match ctx.ctx_item with
  | Some (Xdm.Node n) -> n
  | Some (Xdm.Atomic _) -> Xdm.dyn_error "context item is not a node"
  | None -> Xdm.dyn_error "XPDY0002: context item is undefined"

let register_function ctx ~module_uri ~location (decl : Ast.function_decl) =
  let key =
    (decl.Ast.fn_name.Qname.uri, decl.Ast.fn_name.Qname.local,
     List.length decl.Ast.fn_params)
  in
  Hashtbl.replace ctx.funcs key
    { decl; fn_module_uri = module_uri; fn_location = location }

let find_function ctx (q : Qname.t) arity =
  Hashtbl.find_opt ctx.funcs (q.Qname.uri, q.Qname.local, arity)

let option_value ctx (q : Qname.t) =
  List.assoc_opt (var_key q) !(ctx.options)

let set_option ctx (q : Qname.t) v =
  ctx.options := (var_key q, v) :: !(ctx.options)

(** The isolation level selected with [declare option xrpc:isolation]. *)
let isolation ctx =
  match option_value ctx (Qname.make ~uri:Qname.ns_xrpc "isolation") with
  | Some "repeatable" -> `Repeatable
  | Some "snapshot" -> `Snapshot
  | _ -> `None

(** The queryID timeout in seconds selected with [declare option
    xrpc:timeout] (default 30).  The value must pass the wire's rule
    ({!Message.timeout_attr}): a bad one is a dynamic error here, before
    any request carries it. *)
let timeout ctx =
  match option_value ctx (Qname.make ~uri:Qname.ns_xrpc "timeout") with
  | Some s -> (
      try Message.timeout_attr "option xrpc:timeout" s
      with Message.Protocol_error reason -> raise (Xdm.Dynamic_error reason))
  | None -> 30
