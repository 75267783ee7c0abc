(* The JSON codec lives in [Ftr_json.Sjson]. This alias keeps the name
   [Ftr_serve.Sjson], with the type equal, because the benchmark in
   perfbench/ and the serve tests are written against it. *)
include Ftr_json.Sjson
