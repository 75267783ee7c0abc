(* Pinned route tables. Every construction is a family of Menger fans,
   so a change to the flow layer's search order (arc order, level BFS,
   path peeling) would silently pick different paths and move the
   exact diameters the corpus records. These digests of the saved
   ftr-routing text hold the tables byte for byte. *)

open Ftr_graph
open Ftr_core

let t_of g = Connectivity.vertex_connectivity g - 1

let auto g =
  (Builder.auto ~rng:(Random.State.make [| 48879 |]) g).Builder.construction

let cases =
  [
    ("auto hypercube:6", (fun () -> auto (Families.hypercube 6)),
     "b80245c4dc47fd91cc98a1350744da03");
    ("auto torus:7x7", (fun () -> auto (Families.torus 7 7)),
     "d7d49303c6eb5dbdb67ea9e7e4aff406");
    ( "kernel torus:5x5",
      (fun () ->
        let g = Families.torus 5 5 in
        Kernel.make g ~t:(t_of g)),
      "5eff1a2c363820bad5d14120053a1360" );
    ( "bipolar/uni cycle:12",
      (fun () ->
        let g = Families.cycle 12 in
        Bipolar.make_unidirectional g ~t:(t_of g)),
      "0d63e0fd678941c5f3b70812ce38cd26" );
    ( "tri-circular/small ccc:4",
      (fun () ->
        let g = Families.ccc 4 in
        Tri_circular.make g ~t:(t_of g) ~variant:Tri_circular.Small),
      "0e5150a8080eca8c400d0017f16a7c8a" );
  ]

let check (name, build, expected) =
  Alcotest.test_case name `Quick (fun () ->
      let c : Construction.t = build () in
      let digest = Digest.to_hex (Digest.string (Routing_io.to_string c.routing)) in
      Alcotest.(check string) "table digest" expected digest)

let () = Alcotest.run "route_digests" [ ("tables", List.map check cases) ]
