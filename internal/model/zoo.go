package model

import (
	"fmt"
	"slices"
	"strings"
)

// This file defines the 13 benchmark workloads of the paper's
// evaluation (§IV-A): Lenet (let), Alexnet (alex), Mobilenet (mob),
// ResNet18 (rest), GoogleNet (goo), DLRM (dlrm), AlphaGoZero (algo),
// DeepSpeech2 (ds2), FasterRCNN (fast), NCF_recommendation (ncf),
// Sentimental_seqCNN (sent), Transformer_fwd (trf), Yolo_tiny (yolo).
// Layer shapes follow the SCALE-Sim topology conventions: convolution
// ifmap dims are pre-padded, pooling is folded into the next layer's
// input dims, and recurrent/attention computations are unrolled into
// their constituent GEMMs.

// LeNet is the classic 5-layer LeNet-5 on 32x32 input.
func LeNet() *Network {
	return &Network{
		Name: "let", Full: "LeNet-5",
		Layers: []Layer{
			CV("conv1", 32, 32, 5, 5, 1, 6, 1),
			CV("conv2", 14, 14, 5, 5, 6, 16, 1),
			CV("conv3", 5, 5, 5, 5, 16, 120, 1),
			FC("fc1", 1, 120, 84),
			FC("fc2", 1, 84, 10),
		},
	}
}

// AlexNet on 227x227x3 input.
func AlexNet() *Network {
	return &Network{
		Name: "alex", Full: "AlexNet",
		Layers: []Layer{
			CV("conv1", 227, 227, 11, 11, 3, 96, 4),
			CV("conv2", 31, 31, 5, 5, 96, 256, 1),
			CV("conv3", 15, 15, 3, 3, 256, 384, 1),
			CV("conv4", 15, 15, 3, 3, 384, 384, 1),
			CV("conv5", 15, 15, 3, 3, 384, 256, 1),
			FC("fc6", 1, 9216, 4096),
			FC("fc7", 1, 4096, 4096),
			FC("fc8", 1, 4096, 1000),
		},
	}
}

// MobileNet is MobileNet-v1 (1.0, 224): alternating depthwise and
// pointwise convolutions.
func MobileNet() *Network {
	n := &Network{Name: "mob", Full: "MobileNet-v1"}
	n.Layers = append(n.Layers, CV("conv1", 226, 226, 3, 3, 3, 32, 2))
	type dwpw struct{ size, inC, outC, stride int }
	specs := []dwpw{
		{112, 32, 64, 1},
		{112, 64, 128, 2},
		{56, 128, 128, 1},
		{56, 128, 256, 2},
		{28, 256, 256, 1},
		{28, 256, 512, 2},
		{14, 512, 512, 1},
		{14, 512, 512, 1},
		{14, 512, 512, 1},
		{14, 512, 512, 1},
		{14, 512, 512, 1},
		{14, 512, 1024, 2},
		{7, 1024, 1024, 1},
	}
	for i, sp := range specs {
		pad := sp.size + 2
		n.Layers = append(n.Layers,
			DW(fmtName("dw", i+1), pad, pad, 3, 3, sp.inC, sp.stride),
			CV(fmtName("pw", i+1), outDim(pad, 3, sp.stride), outDim(pad, 3, sp.stride), 1, 1, sp.inC, sp.outC, 1),
		)
	}
	n.Layers = append(n.Layers, FC("fc", 1, 1024, 1000))
	return n
}

// ResNet18 on 224x224x3 input.
func ResNet18() *Network {
	n := &Network{Name: "rest", Full: "ResNet-18"}
	n.Layers = append(n.Layers, CV("conv1", 230, 230, 7, 7, 3, 64, 2))
	// Four stages of two basic blocks each; first block of stages 2-4
	// downsamples with stride 2 plus a 1x1 projection shortcut.
	type stage struct{ size, inC, outC int }
	stages := []stage{
		{56, 64, 64},
		{56, 64, 128},
		{28, 128, 256},
		{14, 256, 512},
	}
	for si, st := range stages {
		stride := 2
		if si == 0 {
			stride = 1
		}
		out := st.size
		if stride == 2 {
			out = st.size / 2
		}
		base := fmtName("s", si+2)
		n.Layers = append(n.Layers,
			CV(base+"_b1c1", st.size+2, st.size+2, 3, 3, st.inC, st.outC, stride),
			CV(base+"_b1c2", out+2, out+2, 3, 3, st.outC, st.outC, 1),
		)
		if stride == 2 {
			n.Layers = append(n.Layers,
				CV(base+"_proj", st.size, st.size, 1, 1, st.inC, st.outC, 2))
		}
		n.Layers = append(n.Layers,
			CV(base+"_b2c1", out+2, out+2, 3, 3, st.outC, st.outC, 1),
			CV(base+"_b2c2", out+2, out+2, 3, 3, st.outC, st.outC, 1),
		)
	}
	n.Layers = append(n.Layers, FC("fc", 1, 512, 1000))
	return n
}

// GoogLeNet (Inception-v1) with all nine inception modules expanded
// into their branch convolutions.
func GoogLeNet() *Network {
	n := &Network{Name: "goo", Full: "GoogLeNet"}
	n.Layers = append(n.Layers,
		CV("conv1", 230, 230, 7, 7, 3, 64, 2),
		CV("conv2_red", 56, 56, 1, 1, 64, 64, 1),
		CV("conv2", 58, 58, 3, 3, 64, 192, 1),
	)
	type inception struct {
		name                     string
		size, inC                int
		c1, c3r, c3, c5r, c5, pp int
	}
	mods := []inception{
		{"3a", 28, 192, 64, 96, 128, 16, 32, 32},
		{"3b", 28, 256, 128, 128, 192, 32, 96, 64},
		{"4a", 14, 480, 192, 96, 208, 16, 48, 64},
		{"4b", 14, 512, 160, 112, 224, 24, 64, 64},
		{"4c", 14, 512, 128, 128, 256, 24, 64, 64},
		{"4d", 14, 512, 112, 144, 288, 32, 64, 64},
		{"4e", 14, 528, 256, 160, 320, 32, 128, 128},
		{"5a", 7, 832, 256, 160, 320, 32, 128, 128},
		{"5b", 7, 832, 384, 192, 384, 48, 128, 128},
	}
	for _, m := range mods {
		s := m.size
		n.Layers = append(n.Layers,
			CV("inc"+m.name+"_1x1", s, s, 1, 1, m.inC, m.c1, 1),
			CV("inc"+m.name+"_3x3r", s, s, 1, 1, m.inC, m.c3r, 1),
			CV("inc"+m.name+"_3x3", s+2, s+2, 3, 3, m.c3r, m.c3, 1),
			CV("inc"+m.name+"_5x5r", s, s, 1, 1, m.inC, m.c5r, 1),
			CV("inc"+m.name+"_5x5", s+4, s+4, 5, 5, m.c5r, m.c5, 1),
			CV("inc"+m.name+"_pool", s, s, 1, 1, m.inC, m.pp, 1),
		)
	}
	n.Layers = append(n.Layers, FC("fc", 1, 1024, 1000))
	return n
}

// DLRM is the Facebook deep-learning recommendation model's MLP stack
// at batch 128: bottom MLP over dense features, top MLP over the
// feature-interaction output, plus the embedding-projection GEMM.
func DLRM() *Network {
	return &Network{
		Name: "dlrm", Full: "DLRM",
		Layers: []Layer{
			FC("bot1", 128, 13, 512),
			FC("bot2", 128, 512, 256),
			FC("bot3", 128, 256, 64),
			FC("emb_proj", 128, 64, 512),
			FC("top1", 128, 512, 512),
			FC("top2", 128, 512, 256),
			FC("top3", 128, 256, 128),
			FC("top4", 128, 128, 1),
		},
	}
}

// AlphaGoZero is the dual-headed Go network: a conv stem, nine
// residual blocks at 19x19x256, and the policy/value heads.
func AlphaGoZero() *Network {
	n := &Network{Name: "algo", Full: "AlphaGoZero"}
	n.Layers = append(n.Layers, CV("stem", 21, 21, 3, 3, 17, 256, 1))
	for b := 1; b <= 9; b++ {
		n.Layers = append(n.Layers,
			CV(fmtName("res", b)+"_c1", 21, 21, 3, 3, 256, 256, 1),
			CV(fmtName("res", b)+"_c2", 21, 21, 3, 3, 256, 256, 1),
		)
	}
	n.Layers = append(n.Layers,
		CV("policy_conv", 19, 19, 1, 1, 256, 2, 1),
		FC("policy_fc", 1, 722, 362),
		CV("value_conv", 19, 19, 1, 1, 256, 1, 1),
		FC("value_fc1", 1, 361, 256),
		FC("value_fc2", 1, 256, 1),
	)
	return n
}

// DeepSpeech2: 2-D convolutions over a 500-frame spectrogram followed
// by five bidirectional GRU layers unrolled as gate GEMMs (hidden 800;
// input and recurrent projections fused per direction).
func DeepSpeech2() *Network {
	n := &Network{Name: "ds2", Full: "DeepSpeech2"}
	n.Layers = append(n.Layers,
		CV("conv1", 500, 171, 41, 11, 1, 32, 2),
		CV("conv2", 230, 81, 21, 11, 32, 32, 2),
	)
	// After convs: ~105 time steps, feature dim 32*36=1152.
	steps := 105
	in := 1152
	hidden := 800
	for l := 1; l <= 5; l++ {
		k := in
		if l > 1 {
			k = 2 * hidden // bidirectional output feeds the next layer
		}
		n.Layers = append(n.Layers,
			// Input projection for the 3 GRU gates, both directions.
			FC(fmtName("gru", l)+"_x", steps, k, 2*3*hidden),
			// Recurrent projection (unrolled over steps; modeled as a
			// single steps×hidden×3*hidden GEMM per direction).
			FC(fmtName("gru", l)+"_h", steps, hidden, 2*3*hidden),
		)
	}
	n.Layers = append(n.Layers, FC("fc", steps, 2*hidden, 29))
	return n
}

// FasterRCNN with the VGG-16 backbone plus the region-proposal network
// and detection head.
func FasterRCNN() *Network {
	n := &Network{Name: "fast", Full: "FasterRCNN (VGG-16)"}
	type vgg struct {
		name     string
		size     int
		inC, out int
	}
	backbone := []vgg{
		{"c1_1", 224, 3, 64}, {"c1_2", 224, 64, 64},
		{"c2_1", 112, 64, 128}, {"c2_2", 112, 128, 128},
		{"c3_1", 56, 128, 256}, {"c3_2", 56, 256, 256}, {"c3_3", 56, 256, 256},
		{"c4_1", 28, 256, 512}, {"c4_2", 28, 512, 512}, {"c4_3", 28, 512, 512},
		{"c5_1", 14, 512, 512}, {"c5_2", 14, 512, 512}, {"c5_3", 14, 512, 512},
	}
	for _, v := range backbone {
		n.Layers = append(n.Layers, CV(v.name, v.size+2, v.size+2, 3, 3, v.inC, v.out, 1))
	}
	n.Layers = append(n.Layers,
		CV("rpn_conv", 16, 16, 3, 3, 512, 512, 1),
		CV("rpn_cls", 14, 14, 1, 1, 512, 18, 1),
		CV("rpn_reg", 14, 14, 1, 1, 512, 36, 1),
		// Detection head over the top-16 post-NMS RoIs.
		FC("head_fc6", 16, 25088, 4096),
		FC("head_fc7", 16, 4096, 4096),
		FC("head_cls", 16, 4096, 21),
		FC("head_reg", 16, 4096, 84),
	)
	return n
}

// NCF is neural collaborative filtering at batch 256: the MLP tower
// over concatenated user/item embeddings plus the fused GMF/output
// projection.
func NCF() *Network {
	return &Network{
		Name: "ncf", Full: "NCF recommendation",
		Layers: []Layer{
			FC("mlp1", 256, 128, 256),
			FC("mlp2", 256, 256, 128),
			FC("mlp3", 256, 128, 64),
			FC("mlp4", 256, 64, 32),
			FC("out", 256, 96, 1),
		},
	}
}

// SentimentalSeqCNN is a sequence CNN for sentiment analysis:
// convolutions of width 3/4/5 over a 56-token, 300-d embedded
// sentence, followed by the classifier.
func SentimentalSeqCNN() *Network {
	return &Network{
		Name: "sent", Full: "Sentimental seqCNN",
		Layers: []Layer{
			CV("conv3", 56, 300, 3, 300, 1, 100, 1),
			CV("conv4", 56, 300, 4, 300, 1, 100, 1),
			CV("conv5", 56, 300, 5, 300, 1, 100, 1),
			FC("fc", 1, 300, 2),
		},
	}
}

// TransformerFwd is one encoder block's forward pass at sequence
// length 512, d_model 512, 8 heads, FFN 2048 (base configuration):
// QKV projections, attention score and context GEMMs, output
// projection, and the two FFN GEMMs.
func TransformerFwd() *Network {
	const (
		seq = 512
		dm  = 512
		dff = 2048
	)
	return &Network{
		Name: "trf", Full: "Transformer forward",
		Layers: []Layer{
			FC("q_proj", seq, dm, dm),
			FC("k_proj", seq, dm, dm),
			FC("v_proj", seq, dm, dm),
			FC("attn_score", seq, dm, seq), // Q x K^T across heads
			FC("attn_ctx", seq, seq, dm),   // softmax(QK) x V
			FC("out_proj", seq, dm, dm),
			FC("ffn1", seq, dm, dff),
			FC("ffn2", seq, dff, dm),
		},
	}
}

// YoloTiny is Tiny-YOLO v2 on 416x416 input.
func YoloTiny() *Network {
	return &Network{
		Name: "yolo", Full: "YOLO-tiny",
		Layers: []Layer{
			CV("conv1", 418, 418, 3, 3, 3, 16, 1),
			CV("conv2", 210, 210, 3, 3, 16, 32, 1),
			CV("conv3", 106, 106, 3, 3, 32, 64, 1),
			CV("conv4", 54, 54, 3, 3, 64, 128, 1),
			CV("conv5", 28, 28, 3, 3, 128, 256, 1),
			CV("conv6", 15, 15, 3, 3, 256, 512, 1),
			CV("conv7", 15, 15, 3, 3, 512, 1024, 1),
			CV("conv8", 15, 15, 3, 3, 1024, 1024, 1),
			CV("conv9", 13, 13, 1, 1, 1024, 125, 1),
		},
	}
}

// zoo is the suite in the paper's figure order: each network's short
// name next to its constructor, so a lookup builds only the layer
// tables it returns (TestZooNamesMatchNetworks keeps the names in step).
var zoo = []struct {
	name  string
	build func() *Network
}{
	{"let", LeNet}, {"alex", AlexNet}, {"mob", MobileNet}, {"rest", ResNet18},
	{"goo", GoogLeNet}, {"dlrm", DLRM}, {"algo", AlphaGoZero}, {"ds2", DeepSpeech2},
	{"fast", FasterRCNN}, {"ncf", NCF}, {"sent", SentimentalSeqCNN}, {"trf", TransformerFwd},
	{"yolo", YoloTiny},
}

// All returns the 13 benchmark networks in the paper's figure order.
func All() []*Network {
	out := make([]*Network, len(zoo))
	for i, z := range zoo {
		out[i] = z.build()
	}
	return out
}

// ByName returns the network with the given short name, or nil. The
// match is case-insensitive ("REST" and "rest" are the same workload);
// callers reporting a failed lookup should list Names() so users see
// the valid set.
func ByName(name string) *Network {
	if i := zooIndex(name); i >= 0 {
		return zoo[i].build()
	}
	return nil
}

// zooIndex returns the position of the named network in zoo, or -1.
func zooIndex(name string) int {
	for i, z := range zoo {
		if strings.EqualFold(z.name, name) {
			return i
		}
	}
	return -1
}

// Names returns the short names in figure order.
func Names() []string {
	out := make([]string, len(zoo))
	for i, z := range zoo {
		out[i] = z.name
	}
	return out
}

// ParseList resolves a comma-separated workload list against the
// suite: empty selects All(), names match as in ByName (surrounding
// spaces ignored), and a repeated name keeps only its first
// occurrence, so "let,LET" denotes the same list as "let".
func ParseList(raw string) ([]*Network, error) {
	if raw == "" {
		return All(), nil
	}
	var picked []int
	for _, name := range strings.Split(raw, ",") {
		i := zooIndex(strings.TrimSpace(name))
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q (known: %s)", strings.TrimSpace(name), strings.Join(Names(), ", "))
		}
		if !slices.Contains(picked, i) {
			picked = append(picked, i)
		}
	}
	nets := make([]*Network, len(picked))
	for k, i := range picked {
		nets[k] = zoo[i].build()
	}
	return nets, nil
}

func fmtName(prefix string, i int) string {
	// Small helper avoiding fmt in hot paths; layer tables are built
	// once so clarity wins over speed here.
	digits := ""
	if i == 0 {
		digits = "0"
	}
	for i > 0 {
		digits = string(rune('0'+i%10)) + digits
		i /= 10
	}
	return prefix + digits
}

func outDim(in, filt, stride int) int { return (in-filt)/stride + 1 }
