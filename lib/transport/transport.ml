type stats = Knet.Edge.stats

module type WIRE = sig
  include Krpc.Rpc.PROTOCOL

  val decode_request : Kutil.Codec.decoder -> request
  val decode_response : Kutil.Codec.decoder -> response
end

module Make = Krpc.Rpc.Make
