package params

import (
	"testing"
	"time"
)

func TestDefaultInvariants(t *testing.T) {
	p := Default()
	if p.HostCoreSpeed != 1.0 {
		t.Fatal("host core is the reference speed")
	}
	if !(p.DPUNetSpeed > 0 && p.DPUNetSpeed < 1.0) {
		t.Fatalf("DPU core speed %v, want below the host core's", p.DPUNetSpeed)
	}
	if p.KernelTCPPerMsg <= p.FStackPerMsg {
		t.Fatal("kernel stack must cost more than F-stack")
	}
	if p.MemcpyPerByteCold <= p.MemcpyPerByteCached {
		t.Fatal("cold copies must cost more than cached ones")
	}
	if p.IngressScaleDownUtil >= p.IngressScaleUpUtil {
		t.Fatal("hysteresis thresholds inverted")
	}
	if p.SKMsgInterruptCap < p.SKMsgInterruptBase {
		t.Fatal("interrupt cap below base")
	}
	if p.QPSetupTime < 10*time.Millisecond {
		t.Fatal("QP setup should be tens of milliseconds (§3.3)")
	}
	if p.HugepageSize != 2<<20 {
		t.Fatal("hugepages are 2MB (§3.4)")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := Default()
	q := p.Clone()
	q.DNEExtraPerMsg = time.Hour
	if p.DNEExtraPerMsg == time.Hour {
		t.Fatal("Clone shares state with the original")
	}
}

func TestBytesHelper(t *testing.T) {
	if Bytes(0.5, 1000) != 500*time.Nanosecond {
		t.Fatalf("Bytes(0.5, 1000) = %v", Bytes(0.5, 1000))
	}
	if Bytes(2, 0) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
}
