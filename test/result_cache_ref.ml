(* Test oracle: the result-cache key as it was before the direct
   encoding — every parameter sequence marshalled through [s2n] and
   serialized whole.  Linked by nothing under lib/; the key-equality
   battery in test_cache checks that [Result_cache.key] equates exactly
   the call lists this key equates. *)

open Xrpc_xml
module Marshal = Xrpc_soap.Marshal

let key ~module_uri ~fn ~arity ~(calls : Xdm.sequence list list) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf module_uri;
  Buffer.add_char buf '\000';
  Buffer.add_string buf fn;
  Buffer.add_char buf '#';
  Buffer.add_string buf (string_of_int arity);
  List.iter
    (fun params ->
      Buffer.add_char buf '\000';
      List.iter
        (fun seq ->
          Buffer.add_char buf '\001';
          Buffer.add_string buf (Serialize.to_string (Marshal.s2n seq)))
        params)
    calls;
  Buffer.contents buf
