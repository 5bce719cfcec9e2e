package kernel

import "math"

const (
	// logOff is the bit pattern of the lower end of the reduced range
	// [0.68555, 1.37109): 80 table intervals of 2^-8 below the one
	// centred on 1, 47 of 2^-7 above it.
	logOff = 0x3fe5f00000000000

	// ln2Hi + ln2Lo = ln 2, with ln2Hi a multiple of 2^-43 like every
	// logTab.logc, so that k*ln2Hi + logc is exact for |k| < 2^10.
	ln2Hi = 0x1.62e42fefa3800p-1
	ln2Lo = 0x1.ef35793c76730p-45
)

// LogTableBytes is the size of the logarithm's table, the memory column of
// the paper's Table 1 for its "tabulated routines" technique.
const LogTableBytes = len(logTab) * 16

// log returns the natural logarithm of x, within an ulp for normal
// positive x; zero, negative, subnormal, infinite and NaN arguments get
// math.Log's answer. The package documentation has the construction and
// the error bound.
func log(x float64) float64 {
	ix := math.Float64bits(x)
	if ix-1<<52 >= 0x7ff<<52-1<<52 {
		return math.Log(x)
	}
	// x = 2^k * z with z in the reduced range, e the interval z falls in.
	tmp := ix - logOff
	e := &logTab[tmp>>45&127]
	k := float64(int64(tmp) >> 52)
	z := math.Float64frombits(ix - tmp&(0xfff<<52))

	// ln x = k ln2 + ln c + ln(1+r), r = z/c - 1 exactly, |r| <= 2^-8.
	// w is exact, hi + lo carries w + r + k*ln2Lo to about 2^-68.
	r := math.FMA(z, e.invc, -1)
	w := k*ln2Hi + e.logc
	hi := w + r
	lo := w - hi + r + k*ln2Lo

	// ln(1+r) - r by its series through r^7; the r^8/8 left out is below
	// 2^-59 of ln(1+r). (A minimax fit of one degree less would miss the
	// relative accuracy the interval around 1, where w = 0, needs.)
	r2 := r * r
	p := (1.0/3 - r*(1.0/4)) + r2*((1.0/5-r*(1.0/6))+r2*(1.0/7))
	return lo - 0.5*r2 + r*r2*p + hi
}

// logTab holds, for each of the 128 intervals of the reduced range, a
// double invc within 2^-27 of the reciprocal of the interval's midpoint
// and logc = -ln(invc) rounded to a multiple of 2^-43; invc is the
// candidate near the midpoint whose logarithm lies closest to that grid
// (within 2^-61.7 of logc, relatively). The interval around 1 has c = 1.
var logTab = [128]struct{ invc, logc float64 }{
	{0x1.745d171ab03f6p+00, -0x1.7fafa346e6p-02}, {0x1.7242882a066f7p+00, -0x1.79e2671c098p-02},
	{0x1.702e05b4685ddp+00, -0x1.741d874a2ap-02}, {0x1.6e1f769340dc9p+00, -0x1.6e60ee0ecbp-02},
	{0x1.6c16c149640afp+00, -0x1.68ac83883p-02}, {0x1.6a13cce037989p+00, -0x1.6300301dc8p-02},
	{0x1.68168139ea914p+00, -0x1.5d5bdd7249p-02}, {0x1.661ec66c29664p+00, -0x1.57bf7499d38p-02},
	{0x1.642c8553fa59fp+00, -0x1.522adfc4fap-02}, {0x1.623fa79c2c044p+00, -0x1.4c9e0a60e2p-02},
	{0x1.605815d713865p+00, -0x1.4718dba02dp-02}, {0x1.5e75bbb70442fp+00, -0x1.419b42b81fp-02},
	{0x1.5c9882b05464bp+00, -0x1.3c2527592bp-02}, {0x1.5ac056bb7c153p+00, -0x1.36b6778d8b8p-02},
	{0x1.58ed233abc06p+00, -0x1.314f1eb394p-02}, {0x1.571ed3be27227p+00, -0x1.2bef07b946p-02},
	{0x1.5555552bfb17ap+00, -0x1.269620973fp-02}, {0x1.53909450251f7p+00, -0x1.214456129b8p-02},
	{0x1.51d07e94f6daap+00, -0x1.1bf995e933p-02}, {0x1.5015014250d4fp+00, -0x1.16b5cc90dep-02},
	{0x1.4e5e0a96cb2c8p+00, -0x1.1178e8904c8p-02}, {0x1.4cab88af91f8dp+00, -0x1.0c42d732838p-02},
	{0x1.4afd6a3192e6cp+00, -0x1.0713868e34p-02}, {0x1.49539e44f8a1cp+00, -0x1.01eae580e18p-02},
	{0x1.47ae14521cecep+00, -0x1.f991c5cc7p-03}, {0x1.460cbc64893c2p+00, -0x1.ef5adda54ep-03},
	{0x1.446f863b18deep+00, -0x1.e530ef537ep-03}, {0x1.42d6628acee26p+00, -0x1.db13dc2dd9p-03},
	{0x1.4141411094e0bp+00, -0x1.d1037df00bp-03}, {0x1.3fb0140d15dbfp+00, -0x1.c6ffbce2d5p-03},
	{0x1.3e22cb93884dep+00, -0x1.bd0872097bp-03}, {0x1.3c995a09fbff7p+00, -0x1.b31d83e653p-03},
	{0x1.3b13b11502367p+00, -0x1.a93ed2d13cp-03}, {0x1.3991c2d018be2p+00, -0x1.9f6c40cfabp-03},
	{0x1.381381072920fp+00, -0x1.95a5ac8e6ep-03}, {0x1.3698defe1ab4bp+00, -0x1.8beafd0f1p-03},
	{0x1.3521cfbf5ee87p+00, -0x1.823c16a8efp-03}, {0x1.33ae45a3d42a3p+00, -0x1.7898d7dec1p-03},
	{0x1.323e34d34952p+00, -0x1.6f0129fc51p-03}, {0x1.30d19039d8ad5p+00, -0x1.6574eced69p-03},
	{0x1.2f684bec5b93bp+00, -0x1.5bf40730aep-03}, {0x1.2e025c01344c9p+00, -0x1.527e5e3246p-03},
	{0x1.2c9fb514e190cp+00, -0x1.4913d9d17cp-03}, {0x1.2b404aabb6917p+00, -0x1.3fb45960bcp-03},
	{0x1.29e412b3068b7p+00, -0x1.365fcb9026p-03}, {0x1.288b015e1e8a8p+00, -0x1.2d16123a6bp-03},
	{0x1.27350b67bf42ep+00, -0x1.23d711c45bp-03}, {0x1.25e227451bc64p+00, -0x1.1aa2b98bd9p-03},
	{0x1.249249027fd13p+00, -0x1.1178e733fdp-03}, {0x1.234567606b258p+00, -0x1.08598a37d5p-03},
	{0x1.21fb77e5219acp+00, -0x1.fe89112238p-04}, {0x1.20b470d1056c2p+00, -0x1.ec7398c61ep-04},
	{0x1.1f7047f92d95cp+00, -0x1.da7277d70ep-04}, {0x1.1e2ef39bdb0f8p+00, -0x1.c8857ec274p-04},
	{0x1.1cf06aa1d7653p+00, -0x1.b6ac85b14ep-04}, {0x1.1bb4a4218cc2dp+00, -0x1.a4e765af7cp-04},
	{0x1.1a7b96070eb7bp+00, -0x1.9335e53beap-04}, {0x1.194537d14b61ep+00, -0x1.8197dfcbe8p-04},
	{0x1.1811810538569p+00, -0x1.700d2f9b04p-04}, {0x1.16e068c744f67p+00, -0x1.5e95a7c83ep-04},
	{0x1.15b1e5e07bcd6p+00, -0x1.4d3114812ap-04}, {0x1.1485f10eca10ep+00, -0x1.3bdf5d283p-04},
	{0x1.135c812911eaep+00, -0x1.2aa04b875cp-04}, {0x1.12358e384e1a6p+00, -0x1.1973b97d74p-04},
	{0x1.111110f32cf55p+00, -0x1.0859899986p-04}, {0x1.0fef01437432cp+00, -0x1.eea3221078p-05},
	{0x1.0ecf56f40224ap+00, -0x1.ccb743331cp-05}, {0x1.0db20aa4cac37p+00, -0x1.aaef305d4p-05},
	{0x1.0c9714f428d02p+00, -0x1.894aa060d8p-05}, {0x1.0b7e6ee555f3dp+00, -0x1.67c9535cb4p-05},
	{0x1.0a6810ca04384p+00, -0x1.466af186ep-05}, {0x1.0953f3a5e056fp+00, -0x1.252f359a4p-05},
	{0x1.084210aaa481fp+00, -0x1.0415dd486p-05}, {0x1.073260d53988p+00, -0x1.c63d3a9a88p-06},
	{0x1.0624dd02eb72p+00, -0x1.849247c308p-06}, {0x1.05197f66c5b97p+00, -0x1.432a8cca78p-06},
	{0x1.0410410a3da07p+00, -0x1.0205670e6p-06}, {0x1.03091b33000bdp+00, -0x1.82447aec1p-07},
	{0x1.020407f66d1e7p+00, -0x1.01014a98bp-07}, {0x1.0101013b556ccp+00, -0x1.00808fafap-08},
	{1, 0}, {0x1.fc07f0147228ap-01, 0x1.fe02ac638p-08},
	{0x1.f81f81f144ae4p-01, 0x1.fc0a8ccd5p-07}, {0x1.f4465a1f824adp-01, 0x1.7b91a8f57p-06},
	{0x1.f07c1edd8e284p-01, 0x1.f829b6583p-06}, {0x1.ecc07b0ff80cep-01, 0x1.39e87db67p-05},
	{0x1.e9131ab084e26p-01, 0x1.774590567cp-05}, {0x1.e573ac9a69311p-01, 0x1.b42dd663e8p-05},
	{0x1.e1e1e1ca2ef37p-01, 0x1.f0a30d93f8p-05}, {0x1.de5d6e6f5d64bp-01, 0x1.16536d50a8p-04},
	{0x1.dae60761fd941p-01, 0x1.341d79b492p-04}, {0x1.d77b652004518p-01, 0x1.51b0756a3cp-04},
	{0x1.d41d41ba3d91p-01, 0x1.6f0d2990bcp-04}, {0x1.d0cb5922104e5p-01, 0x1.8c345be6eap-04},
	{0x1.cd85686a7fecep-01, 0x1.a926d4f37ep-04}, {0x1.ca4b301b329fdp-01, 0x1.c5e54b02a8p-04},
	{0x1.c71c719d2f76fp-01, 0x1.e270785c04p-04}, {0x1.c3f8eff7bcc38p-01, 0x1.fec91468ap-04},
	{0x1.c0e0700f006a7p-01, 0x1.0d77e88897p-03}, {0x1.bdd2b8b1201a9p-01, 0x1.1b72ace54bp-03},
	{0x1.bacf915b9203fp-01, 0x1.29552f3a7cp-03}, {0x1.b7d6c3b8980bep-01, 0x1.371fc2ae65p-03},
	{0x1.b4e81b26ad66dp-01, 0x1.44d2b7876bp-03}, {0x1.b203640e71a53p-01, 0x1.526e5e15f3p-03},
	{0x1.af286b8ea65dcp-01, 0x1.5ff30824e3p-03}, {0x1.ac5701b1cf162p-01, 0x1.6d60fe5777p-03},
	{0x1.a98ef62a7977dp-01, 0x1.7ab88f74a5p-03}, {0x1.a6d01a7d25b0fp-01, 0x1.87fa0603dep-03},
	{0x1.a41a4199dbfbcp-01, 0x1.9525aa0135p-03}, {0x1.a16d3fc0bc323p-01, 0x1.a23bc1349p-03},
	{0x1.9ec8e94167b21p-01, 0x1.af3c95351cp-03}, {0x1.9c2d14b712ad6p-01, 0x1.bc28685534p-03},
	{0x1.9999997c4c53ap-01, 0x1.c8ff7d0c2cp-03}, {0x1.970e4f421e8dcp-01, 0x1.d5c217f052p-03},
	{0x1.948b0ff629e99p-01, 0x1.e27076147bp-03}, {0x1.920fb467f163ap-01, 0x1.ef0addcc5p-03},
	{0x1.8f9c18d0069cap-01, 0x1.fb9187abc2p-03}, {0x1.8d3018f77d4a8p-01, 0x1.040258ed3ep-02},
	{0x1.8acb90f9f9464p-01, 0x1.0a324e1eda8p-02}, {0x1.886e5eeba6f75p-01, 0x1.1058bfebfdp-02},
	{0x1.861861bbfe6e1p-01, 0x1.1675ca2d3e8p-02}, {0x1.83c977ad35d27p-01, 0x1.1c898c11378p-02},
	{0x1.8181818bb5ae1p-01, 0x1.22941fa1ddp-02}, {0x1.7f405facd84bbp-01, 0x1.2895a19c168p-02},
	{0x1.7d05f3ea81fb3p-01, 0x1.2e8e2c27d48p-02}, {0x1.7ad22084095f3p-01, 0x1.347dd9c49e8p-02},
	{0x1.78a4c813c74efp-01, 0x1.3a64c560ce8p-02}, {0x1.767dce4a6721p-01, 0x1.40430854f88p-02},
}
