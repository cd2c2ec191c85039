//! Cross-crate integration tests: the conventions that crates share —
//! layout pitches, OTC decompositions, cost formulas vs the bit-level
//! event simulator — must agree, and every parallel algorithm must agree
//! with every other implementation of the same problem.

use orthotrees::otc::Otc;
use orthotrees::otn::{self, Otn};
use orthotrees::CostModel;
use orthotrees_analysis::workloads;
use orthotrees_baselines::{ccc::Ccc, mesh, psn::Psn, seq};
use orthotrees_layout::otc::{otc_dims, OtcLayout};
use orthotrees_layout::otn::OtnLayout;
use orthotrees_sim::{experiments, Instruments};

#[test]
fn core_and_layout_agree_on_otc_decomposition() {
    for k in 2..=14u32 {
        let n = 1usize << k;
        assert_eq!(Otc::dims_for(n).unwrap(), otc_dims(n).unwrap(), "OTC dims diverge at n={n}");
    }
}

#[test]
fn core_pitch_matches_layout_pitch() {
    for n in [4usize, 16, 64] {
        let net = Otn::for_sorting(n).unwrap();
        let layout = OtnLayout::with_default_word(n).unwrap();
        assert_eq!(net.pitch(), layout.pitch(), "pitch convention diverges at n={n}");
    }
}

#[test]
fn event_simulator_validates_the_cost_model_at_network_pitch() {
    // The costs the OTN charges are exactly what the bit-level event
    // simulation of the same tree measures.
    for n in [4usize, 16, 64] {
        let net = Otn::for_sorting(n).unwrap();
        let model = *net.model();
        let bare = Instruments::default();
        let (simulated, _) =
            experiments::broadcast_completion_time(n, &with_pitch(model, net.pitch()), bare)
                .unwrap();
        assert_eq!(
            simulated,
            model.tree_root_to_leaf(n, net.pitch()),
            "broadcast cost diverges at n={n}"
        );
        let values: Vec<u64> = (0..n as u64).map(|v| v % (1 << model.word_bits)).collect();
        let (t, sum) =
            experiments::sum_completion_time(&values, &with_pitch(model, net.pitch())).unwrap();
        assert_eq!(sum, values.iter().sum::<u64>());
        assert_eq!(t, model.tree_aggregate(n, net.pitch()), "sum cost diverges at n={n}");
    }
}

fn with_pitch(model: CostModel, pitch: u64) -> CostModel {
    CostModel { pitch, ..model }
}

#[test]
fn all_five_sorting_networks_agree() {
    let n = 64;
    for seed in [1u64, 2, 3] {
        let xs = workloads::distinct_words(n, seed);
        let expect = seq::sorted(&xs);

        let mut otn = Otn::for_sorting(n).unwrap();
        assert_eq!(otn::sort::sort(&mut otn, &xs).unwrap().sorted, expect, "OTN");

        let mut otc = Otc::for_sorting(n).unwrap();
        assert_eq!(orthotrees::otc::sort::sort(&mut otc, &xs).unwrap().sorted, expect, "OTC");

        let mut m = mesh::Mesh::for_sorting(n).unwrap();
        assert_eq!(mesh::sort::shear_sort(&mut m, &xs).unwrap().sorted, expect, "mesh");

        let mut p = Psn::new(n).unwrap();
        assert_eq!(p.sort(&xs).unwrap().sorted, expect, "PSN");

        let mut c = Ccc::new(n).unwrap();
        assert_eq!(c.sort(&xs).unwrap().sorted, expect, "CCC");
    }
}

#[test]
fn bitonic_sort_agrees_with_rank_sort_on_shared_inputs() {
    let k = 8; // bitonic sorts k² elements; rank sort sorts k.
    let xs = workloads::duplicated_words(k * k, 5);
    let mut net = Otn::for_sorting(k).unwrap();
    let bitonic = otn::bitonic::bitonic_sort(&mut net, &xs).unwrap().sorted;
    assert_eq!(bitonic, seq::sorted(&xs));
}

#[test]
fn connected_components_agree_across_implementations() {
    for (n, p, seed) in [(16usize, 0.15, 1u64), (32, 0.08, 2), (64, 0.04, 3)] {
        let adj = workloads::gnp_adjacency(n, p, seed);
        let edges = workloads::edges_of(&adj);
        let reference = seq::components(n, &edges);

        let otn_out = otn::graph::cc::connected_components(&adj).unwrap();
        assert_eq!(otn_out.labels, reference, "OTN CC, n={n}");

        let rows = workloads::grid_to_rows(&adj);
        let mesh_out = mesh::closure::connected_components(&rows).unwrap();
        assert_eq!(mesh_out.labels, reference, "mesh CC, n={n}");

        // The transitive closure also induces the same components: v's
        // component = min reachable vertex.
        let closure = otn::graph::closure::transitive_closure(&adj).unwrap();
        for (v, &label) in reference.iter().enumerate() {
            let min_reach =
                (0..n).filter(|&u| *closure.reach.get(v, u) != 0).min().expect("v reaches itself");
            assert_eq!(min_reach as i64, label, "closure CC, n={n}, v={v}");
        }
    }
}

#[test]
fn mst_agrees_with_kruskal_on_random_graphs() {
    for (n, seed) in [(16usize, 10u64), (32, 11), (64, 12)] {
        let weights = workloads::random_weights(n, 3.0 / n as f64, 200, seed);
        let wedges = workloads::weighted_edges_of(&weights);
        let out = otn::graph::mst::minimum_spanning_tree(&weights).unwrap();
        let (ref_w, ref_e) = seq::kruskal(n, &wedges);
        assert_eq!(out.total_weight, ref_w, "n={n}");
        assert_eq!(out.edges.len(), ref_e, "n={n}");
    }
}

#[test]
fn matmul_agrees_between_otn_and_mesh() {
    let n = 8;
    let a = workloads::random_bool_matrix(n, 0.4, 20);
    let b = workloads::random_bool_matrix(n, 0.4, 21);

    let wide = otn::matmul::bool_matmul_wide(&a, &b).unwrap();
    let rows_a = workloads::grid_to_rows(&a);
    let rows_b = workloads::grid_to_rows(&b);
    let cannon = mesh::matmul::cannon_bool_matmul(&rows_a, &rows_b).unwrap();
    let reference = seq::bool_matmul(&rows_a, &rows_b);
    for (i, ref_row) in reference.iter().enumerate() {
        for (j, &ref_bit) in ref_row.iter().enumerate() {
            assert_eq!(*wide.c.get(i, j), ref_bit, "wide ({i},{j})");
            assert_eq!(cannon.c[i][j], ref_bit, "cannon ({i},{j})");
        }
    }
}

#[test]
fn layout_areas_feed_the_sweeps_consistently() {
    // The area a sorting sweep reports is exactly the layout crate's
    // prediction, which in turn equals the constructed chip (tested in the
    // layout crate).
    let sweeps = orthotrees_analysis::sweep::sort_otn(&[16, 64], 1, false);
    for s in &sweeps.samples {
        assert_eq!(s.area, OtnLayout::predicted_area_default(s.n));
    }
    let otc_sweep = orthotrees_analysis::sweep::sort_otc(&[16, 64], 1);
    for s in &otc_sweep.samples {
        let (m, l) = otc_dims(s.n).unwrap();
        let w = orthotrees_vlsi::log2_ceil(s.n as u64).max(1);
        assert_eq!(s.area, OtcLayout::predicted_area(m, l, w));
    }
}
