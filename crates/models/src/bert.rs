//! BERT-base (Devlin et al., 2018): 12 layers, hidden 768, 12 heads,
//! FFN 3072.
//!
//! The only model in Table 1 whose cost depends on the sequence length:
//! projection/FFN GEMMs scale linearly in `seq`, attention score/context
//! matmuls quadratically. This is exactly the input sensitivity §3.3 calls
//! out, and why the Fig. 8 feature vector carries `seqlen`.

use crate::graph::{GraphBuilder, ModelGraph};
use crate::op::Operator;

/// Hidden width.
const HIDDEN: f64 = 768.0;
/// Attention heads.
const HEADS: f64 = 12.0;
/// FFN inner width.
const FFN: f64 = 3072.0;
/// Encoder layers.
const LAYERS: usize = 12;

/// Build BERT-base for batch size `bs` and sequence length `seq`.
pub fn build(bs: u32, seq: u32) -> ModelGraph {
    let b = f64::from(bs);
    let s = f64::from(seq);
    let rows = b * s; // GEMM M dimension for all projections
    let tok_elems = rows * HIDDEN;
    let head_dim = HIDDEN / HEADS;

    let mut g = GraphBuilder::new("bert");

    // Embeddings: word + position lookup, then layer-norm.
    g.chain(Operator::embedding("embed/word", tok_elems));
    g.chain(Operator::add("embed/pos_add", tok_elems));
    g.chain(Operator::norm("embed/ln", tok_elems));

    for l in 0..LAYERS {
        let tag = |op: &str| format!("layer{l}/{op}");
        let input = g.last();
        let q = g.push(
            Operator::linear(tag("q_proj"), rows, HIDDEN, HIDDEN),
            &[input],
        );
        let k = g.push(
            Operator::linear(tag("k_proj"), rows, HIDDEN, HIDDEN),
            &[input],
        );
        let v = g.push(
            Operator::linear(tag("v_proj"), rows, HIDDEN, HIDDEN),
            &[input],
        );
        // Scores: (b*heads) batched s×d · d×s.
        let scores = g.push(
            Operator::matmul(tag("scores"), b * HEADS, s, head_dim, s),
            &[q, k],
        );
        let probs = g.push(
            Operator::softmax(tag("softmax"), b * HEADS * s * s),
            &[scores],
        );
        // Context: (b*heads) batched s×s · s×d.
        let ctx = g.push(
            Operator::matmul(tag("context"), b * HEADS, s, s, head_dim),
            &[probs, v],
        );
        let o = g.push(
            Operator::linear(tag("out_proj"), rows, HIDDEN, HIDDEN),
            &[ctx],
        );
        let a1 = g.push(Operator::add(tag("attn_add"), tok_elems), &[input, o]);
        let n1 = g.push(Operator::norm(tag("attn_ln"), tok_elems), &[a1]);
        let f1 = g.push(Operator::linear(tag("ffn1"), rows, HIDDEN, FFN), &[n1]);
        let gelu = g.push(Operator::activation(tag("gelu"), rows * FFN), &[f1]);
        let f2 = g.push(Operator::linear(tag("ffn2"), rows, FFN, HIDDEN), &[gelu]);
        let a2 = g.push(Operator::add(tag("ffn_add"), tok_elems), &[n1, f2]);
        g.push(Operator::norm(tag("ffn_ln"), tok_elems), &[a2]);
    }

    // Pooler over the [CLS] token.
    g.chain(Operator::linear("pooler/dense", b, HIDDEN, HIDDEN));
    g.chain(Operator::activation("pooler/tanh", b * HIDDEN));
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use gpu_sim::GpuSpec;

    #[test]
    fn operator_count() {
        let g = build(8, 32);
        // 3 embedding ops + 12 layers x 14 ops + 2 pooler ops.
        assert_eq!(g.len(), 3 + 12 * 14 + 2);
        assert!(g.validate_topological().is_ok());
    }

    #[test]
    fn linear_layers_dominate() {
        let g = build(8, 32);
        assert_eq!(g.count_kind(OpKind::Linear), 12 * 6 + 1);
        assert_eq!(g.count_kind(OpKind::MatMul), 24);
    }

    #[test]
    fn flops_match_published_numbers() {
        // BERT-base forward ≈ 2 * 110M params * tokens for the GEMM part;
        // at bs=1, seq=128 published estimates are ~22 GFLOPs.
        let f = build(1, 128).total_flops() / 1e9;
        assert!((18.0..28.0).contains(&f), "bert {f} GFLOP");
    }

    #[test]
    fn seq_scaling_superlinear() {
        // Doubling seq more than doubles FLOPs (attention is quadratic).
        let f32 = build(8, 32).total_flops();
        let f64_ = build(8, 64).total_flops();
        let ratio = f64_ / f32;
        assert!(ratio > 2.0 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn batch_scaling_linear() {
        let f8 = build(8, 32).total_flops();
        let f16 = build(16, 32).total_flops();
        assert!((f16 / f8 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solo_latency_reasonable() {
        // Max input (bs 32, seq 64) should land in the tens of ms, in the
        // same band as the CV models (QoS targets 50–150 ms at 2x).
        let ms = build(32, 64).solo_ms(&GpuSpec::a100());
        assert!((10.0..50.0).contains(&ms), "bert solo {ms} ms");
    }
}
