type stats = Knet.Edge.stats

module type WIRE = sig
  include Krpc.Rpc.PROTOCOL

  val encode_request : Kutil.Codec.encoder -> request -> unit
  val decode_request : Kutil.Codec.decoder -> request
  val encode_response : Kutil.Codec.encoder -> response -> unit
  val decode_response : Kutil.Codec.decoder -> response
end

module Make = Krpc.Rpc.Make
