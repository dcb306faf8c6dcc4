//! Contracts of the phase engine.
//!
//! Two layers of evidence that the engine simulates the paper's process:
//!
//! 1. **Seeded pins**: literal hitting times for point, capped and ball
//!    targets and literal [`ParallelHit`]s for lockstep parallel trials,
//!    guarding the RNG stream layout (the two-stream split and the
//!    per-phase word order) against silent drift.
//! 2. **Distribution-equality**: the engine's results match the O(d)
//!    step-level reference walk ([`levy_walk_hitting_time_exact`]) under a
//!    two-sample Kolmogorov–Smirnov test, for point, capped, and ball
//!    targets — certifying the corridor early-rejection and the marginal
//!    phase algorithm against the paper's Definition 3.4 process.
//!
//! Plus lockstep parallel determinism: repeated seeded runs of
//! [`parallel_hitting_time`] return byte-identical [`ParallelHit`]s.

use levy_grid::Point;
use levy_rng::{ExponentStrategy, JumpLengthDistribution};
use levy_walks::{
    levy_walk_hitting_time, levy_walk_hitting_time_ball, levy_walk_hitting_time_capped,
    levy_walk_hitting_time_exact, parallel_hitting_time, ParallelHit,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Two-sample Kolmogorov–Smirnov statistic over censored hitting times
/// (`None`, a miss, sorts after every hit as `u64::MAX`; both samples are
/// censored at the same budget, so the comparison stays apples-to-apples).
fn ks_statistic(a: &[Option<u64>], b: &[Option<u64>]) -> f64 {
    let order = |sample: &[Option<u64>]| {
        let mut v: Vec<u64> = sample.iter().map(|t| t.unwrap_or(u64::MAX)).collect();
        v.sort_unstable();
        v
    };
    let (a, b) = (order(a), order(b));
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        let gap = (i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs();
        d = d.max(gap);
    }
    d
}

/// KS acceptance threshold for two samples of size `n` at a comfortable
/// significance level (c(0.001) ≈ 1.95): seeded, so not flaky — a failure
/// means a real distributional discrepancy, not bad luck.
fn ks_threshold(n: usize) -> f64 {
    1.95 * (2.0 / n as f64).sqrt()
}

fn sample(
    n: usize,
    seed: u64,
    mut trial: impl FnMut(&mut SmallRng) -> Option<u64>,
) -> Vec<Option<u64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| trial(&mut rng)).collect()
}

#[test]
fn engine_matches_exact_walk_distribution_point_target() {
    let jumps = JumpLengthDistribution::new(2.4).unwrap();
    let (target, budget, n) = (Point::new(5, 2), 400, 4_000);
    let engine = sample(n, 0xE6_01, |rng| {
        levy_walk_hitting_time(&jumps, Point::ORIGIN, target, budget, rng)
    });
    let exact = sample(n, 0xE6_02, |rng| {
        levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, budget, rng)
    });
    let d = ks_statistic(&engine, &exact);
    assert!(
        d < ks_threshold(n),
        "KS statistic {d} exceeds threshold {} for the point target",
        ks_threshold(n)
    );
}

#[test]
fn engine_matches_exact_walk_distribution_generous_cap() {
    // A cap no in-budget jump can reach conditions on nothing, so the
    // capped engine must match the uncapped exact walk in distribution.
    let jumps = JumpLengthDistribution::new(2.2).unwrap();
    let (target, budget, n) = (Point::new(4, 0), 300, 4_000);
    let engine = sample(n, 0xE6_03, |rng| {
        levy_walk_hitting_time_capped(&jumps, u64::MAX, Point::ORIGIN, target, budget, rng)
    });
    let exact = sample(n, 0xE6_04, |rng| {
        levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, budget, rng)
    });
    let d = ks_statistic(&engine, &exact);
    assert!(
        d < ks_threshold(n),
        "KS statistic {d} exceeds threshold {} for the capped walk",
        ks_threshold(n)
    );
}

#[test]
fn engine_matches_exact_walk_distribution_radius_zero_ball() {
    // B_0(center) is the unit target, so the ball engine must match the
    // exact point-target walk in distribution.
    let jumps = JumpLengthDistribution::new(2.6).unwrap();
    let (target, budget, n) = (Point::new(6, 1), 500, 4_000);
    let engine = sample(n, 0xE6_05, |rng| {
        levy_walk_hitting_time_ball(&jumps, Point::ORIGIN, target, 0, budget, rng)
    });
    let exact = sample(n, 0xE6_06, |rng| {
        levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, budget, rng)
    });
    let d = ks_statistic(&engine, &exact);
    assert!(
        d < ks_threshold(n),
        "KS statistic {d} exceeds threshold {} for the radius-0 ball",
        ks_threshold(n)
    );
}

#[test]
fn lockstep_parallel_results_are_reproducible() {
    let run = || -> Vec<ParallelHit> {
        let mut rng = SmallRng::seed_from_u64(0xE6_20);
        (0..40)
            .map(|_| {
                parallel_hitting_time(
                    6,
                    &ExponentStrategy::UniformSuperdiffusive,
                    Point::ORIGIN,
                    Point::new(9, 4),
                    20_000,
                    &mut rng,
                )
            })
            .collect()
    };
    assert_eq!(run(), run(), "repeated seeded runs must be byte-identical");
}

/// Marks a miss (`None`) in the pinned hitting-time tables.
const MISS: u64 = u64::MAX;
/// Seeded hitting times of the point target `(7, 3)` rounds of
/// [`seeded_hitting_times_are_pinned`].
const PINNED_POINT: [u64; 200] = [
    643, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, 182, MISS, MISS, MISS, MISS,
    MISS, MISS, 216, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    MISS, MISS, MISS, 1637, MISS, MISS, MISS, 395, MISS, MISS, 88, MISS, MISS, MISS, MISS, MISS,
    34, MISS, MISS, MISS, MISS, MISS, 64, MISS, MISS, MISS, MISS, MISS, MISS, 170, MISS, MISS,
    MISS, MISS, MISS, MISS, 260, MISS, MISS, 223, MISS, MISS, MISS, MISS, MISS, 52, MISS, MISS,
    MISS, MISS, MISS, MISS, MISS, MISS, 1072, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, 45, 361,
    953, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, 98, 638, 41, 326, MISS, MISS,
    MISS, MISS, MISS, MISS, MISS, 95, MISS, MISS, MISS, 86, MISS, MISS, MISS, MISS, MISS, MISS,
    130, 61, MISS, MISS, MISS, 1739, MISS, MISS, 143, MISS, MISS, 71, 1308, MISS, 278, 92, MISS,
    MISS, MISS, MISS, MISS, MISS, 164, MISS, MISS, MISS, MISS, 381, MISS, MISS, 75, MISS, MISS,
    MISS, MISS, 817, 35, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    MISS, 1640, MISS, MISS, 101, MISS,
];
/// Seeded hitting times of the capped (cap 30) point target `(7, 3)` rounds of
/// [`seeded_hitting_times_are_pinned`].
const PINNED_CAPPED: [u64; 200] = [
    MISS, 195, 85, 402, MISS, MISS, 182, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    MISS, 149, 294, MISS, 71, MISS, MISS, MISS, 579, MISS, MISS, MISS, MISS, 137, MISS, MISS, MISS,
    MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    MISS, MISS, 489, MISS, MISS, 71, MISS, MISS, MISS, 498, MISS, 167, 103, MISS, MISS, MISS, 615,
    MISS, MISS, MISS, 130, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, 1064, MISS, MISS,
    MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    MISS, 1899, MISS, 74, 94, MISS, MISS, MISS, 114, 41, 113, MISS, MISS, MISS, 47, MISS, MISS,
    MISS, 51, MISS, MISS, MISS, MISS, MISS, MISS, 563, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    MISS, 782, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    1179, MISS, MISS, 51, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    MISS, MISS, MISS, 1144, 129, MISS, 11, MISS, 189, MISS, MISS, MISS, 901, MISS, MISS, 47, MISS,
    676, 59, MISS, MISS, MISS, MISS, 255, MISS, MISS, MISS, MISS, MISS, 1675, MISS, MISS, 239,
    MISS, MISS, MISS, 142,
];
/// Seeded hitting times of the ball `B_3((15, 0))` rounds of
/// [`seeded_hitting_times_are_pinned`].
const PINNED_BALL: [u64; 200] = [
    360, MISS, 936, MISS, MISS, MISS, MISS, 1344, MISS, MISS, 87, MISS, MISS, 336, MISS, MISS, 89,
    MISS, 997, MISS, MISS, 347, MISS, 32, 175, MISS, 30, 126, MISS, MISS, 39, MISS, MISS, MISS,
    412, MISS, 98, MISS, MISS, 54, MISS, MISS, MISS, MISS, MISS, MISS, MISS, 453, MISS, MISS, MISS,
    1238, MISS, MISS, 661, MISS, 502, 239, 287, MISS, MISS, MISS, 371, MISS, MISS, 110, 43, MISS,
    MISS, 614, MISS, MISS, MISS, MISS, 71, 441, MISS, 1899, MISS, 216, MISS, 173, MISS, 123, MISS,
    MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, 713, MISS, MISS,
    MISS, MISS, 360, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS, MISS,
    158, 1906, MISS, MISS, MISS, MISS, MISS, 120, 233, MISS, MISS, 346, MISS, MISS, 806, 71, MISS,
    86, 210, MISS, MISS, 181, MISS, MISS, 1131, MISS, MISS, 16, MISS, MISS, MISS, 1921, 1224, 206,
    MISS, MISS, MISS, 113, MISS, 396, 202, 1769, MISS, MISS, 493, MISS, MISS, MISS, MISS, MISS,
    MISS, 78, MISS, MISS, MISS, 46, 487, 1975, 281, MISS, 120, MISS, MISS, 290, MISS, MISS, MISS,
    MISS, MISS, MISS, MISS, MISS, 86, 71, 205, MISS, MISS, MISS, MISS, MISS, 167, MISS, MISS,
];

/// `(time, winner, exponents)` of the seeded trials of
/// [`seeded_parallel_hits_are_pinned`].
#[rustfmt::skip] // one trial per line reads as a table
const PINNED_PARALLEL: [(Option<u64>, Option<usize>, [f64; 6]); 40] = [
    (None, None, [2.4019114088056273, 2.355399723344954, 2.120818693418051, 2.2983343612839757, 2.2319038662278334, 2.75619679213203]),
    (Some(218), Some(1), [2.4766388815190608, 2.839831677154537, 2.075100280697963, 2.4370987693951722, 2.139518779616581, 2.0300336299778534]),
    (Some(30), Some(5), [2.3737242102573353, 2.3945668257074018, 2.634716610750655, 2.1946845743758248, 2.263775229300816, 2.0845790262844743]),
    (None, None, [2.5282385610958333, 2.3674414646792314, 2.3504412988207877, 2.7809112294490625, 2.537455605187983, 2.465126040260751]),
    (Some(435), Some(3), [2.7614557100338883, 2.269159498611371, 2.6339627056976465, 2.7905314394301426, 2.1327573244647224, 2.1739560638015876]),
    (Some(21), Some(0), [2.7070118509561283, 2.152178232043904, 2.047507657143531, 2.790657861760615, 2.071115464727727, 2.6276939797142886]),
    (Some(333), Some(5), [2.8112700020555383, 2.7055560819246582, 2.8392740061356707, 2.276297008161594, 2.7991709667911406, 2.9245700328875506]),
    (None, None, [2.7863904431105935, 2.49440620808742, 2.5178015137880605, 2.0487198333848284, 2.9323898602825325, 2.105397441499535]),
    (Some(18), Some(5), [2.043296078362408, 2.720660261262503, 2.528308091187669, 2.5696037028281675, 2.0762717364868912, 2.8571109911851886]),
    (Some(464), Some(1), [2.787132641779607, 2.159074557167508, 2.161190662673131, 2.3001634754610905, 2.4832654069819, 2.2992123238529594]),
    (Some(6045), Some(1), [2.3693991075418306, 2.1361431764515464, 2.2476066541507507, 2.9604962737635403, 2.1355025628184126, 2.8104876698375976]),
    (Some(238), Some(3), [2.298391043071959, 2.9969473967913385, 2.059073885692331, 2.6064484014573317, 2.149372707072604, 2.178151933020935]),
    (None, None, [2.2268766972421616, 2.207904590263066, 2.4175738612986044, 2.1891920983636135, 2.093195908393931, 2.437040031578516]),
    (None, None, [2.5702679148588867, 2.112594524187488, 2.413450788660307, 2.223381463642133, 2.8363757401916745, 2.383093094196261]),
    (None, None, [2.296162403386454, 2.0787567313500093, 2.9968719894305775, 2.8930787424260966, 2.9496413628217177, 2.062171977484851]),
    (None, None, [2.295093796612144, 2.1510005690277585, 2.7087981513102437, 2.9490523679515173, 2.2762983233805603, 2.3768692036186265]),
    (Some(142), Some(4), [2.701626358915713, 2.52771166580915, 2.00504163955397, 2.6341294774080044, 2.001328164631353, 2.209555101931806]),
    (None, None, [2.3784200548760617, 2.012648146413479, 2.5759357871732105, 2.5819048952753123, 2.838608027360451, 2.6590522217020105]),
    (None, None, [2.9696631763473427, 2.7318294061428534, 2.6850076581197335, 2.359740275035651, 2.0110033680800945, 2.8223125942731193]),
    (None, None, [2.596414251111573, 2.9124299198269803, 2.3606329039951746, 2.2804698192495563, 2.441306857760211, 2.7641258313792854]),
    (Some(347), Some(1), [2.3419982480134616, 2.654883466147207, 2.481577797901089, 2.6873550056788673, 2.3062196300986244, 2.7498131249175475]),
    (Some(3201), Some(5), [2.758294423569586, 2.21418047887268, 2.54399447639669, 2.776916269299035, 2.3805061197178943, 2.89258843050081]),
    (Some(368), Some(1), [2.4566474067144806, 2.2979647807051906, 2.188991024699108, 2.8596055400870712, 2.336046368486854, 2.683453058978174]),
    (Some(63), Some(4), [2.6939048602281686, 2.9723298200830226, 2.3404542589810786, 2.514522285614556, 2.420865097317872, 2.5741619232598714]),
    (Some(1325), Some(0), [2.79799977183184, 2.5364712528948115, 2.86452923272799, 2.1830261175626484, 2.5408740496207356, 2.027347080958128]),
    (Some(58), Some(5), [2.7468331811053104, 2.395616814488146, 2.1263660943188296, 2.0375336326561135, 2.41242245269744, 2.66531974049199]),
    (Some(625), Some(4), [2.58017958314087, 2.5245634294764807, 2.1983660906883733, 2.6741296817285996, 2.081736050913295, 2.5004311124721808]),
    (Some(19460), Some(2), [2.3121998029810245, 2.64380110061054, 2.9967061610825256, 2.5104814725221334, 2.6602406982923403, 2.1829544027672805]),
    (None, None, [2.614872609891837, 2.4776609005445893, 2.628657503686755, 2.983484628700088, 2.598853153288274, 2.9609987475912214]),
    (None, None, [2.1816161985655524, 2.3631818827842146, 2.2263449088064156, 2.043129804890346, 2.937651747780894, 2.674159322089795]),
    (Some(44), Some(3), [2.6885755572933476, 2.5956701094115187, 2.608542246898594, 2.304059983353756, 2.651339602008035, 2.665907210511264]),
    (Some(222), Some(0), [2.6259127359349215, 2.6970496273504603, 2.2020715178222217, 2.0614041124793814, 2.022733128829405, 2.5243469076668767]),
    (Some(2586), Some(5), [2.722058129699704, 2.794957827281024, 2.3371326280333036, 2.3433359385397585, 2.105513035185477, 2.9418495668194127]),
    (None, None, [2.4987470801979463, 2.1814471282809915, 2.331647997319911, 2.295298202818502, 2.712093865560657, 2.1673821942784413]),
    (Some(543), Some(3), [2.6963160633998453, 2.835273133698721, 2.2642317982993383, 2.4355529802095766, 2.082566506334061, 2.8316715379069892]),
    (None, None, [2.881503457820702, 2.4552521526395985, 2.1634794789898635, 2.0625013251359854, 2.1107526622455177, 2.163667369094542]),
    (None, None, [2.177690209199752, 2.173989879227694, 2.3674951378465527, 2.46698183384045, 2.9336655583971982, 2.0258581002169365]),
    (Some(272), Some(2), [2.8674258251485156, 2.223230346227762, 2.7520645148221643, 2.8928717432767206, 2.6492431515530597, 2.968185687534274]),
    (Some(147), Some(5), [2.3579113966393273, 2.8178487329988315, 2.035128215363995, 2.8670401087771675, 2.1600342033249866, 2.986168161070975]),
    (Some(310), Some(2), [2.1280568428513065, 2.8239585670937495, 2.2977685646130186, 2.4632751994515614, 2.193636165967485, 2.0255792332137634]),
];

#[test]
fn seeded_hitting_times_are_pinned() {
    // Literal values, not a digest: a drift in the RNG stream layout (the
    // two-stream split, the per-phase word order) shows up here as a
    // readable diff of the first diverging trial.
    let jumps = JumpLengthDistribution::new(2.5).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xE6_10);
    let (mut point, mut capped, mut ball) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..200 {
        let target = Point::new(7, 3);
        point.push(levy_walk_hitting_time(
            &jumps,
            Point::ORIGIN,
            target,
            2_000,
            &mut rng,
        ));
        capped.push(levy_walk_hitting_time_capped(
            &jumps,
            30,
            Point::ORIGIN,
            target,
            2_000,
            &mut rng,
        ));
        ball.push(levy_walk_hitting_time_ball(
            &jumps,
            Point::ORIGIN,
            Point::new(15, 0),
            3,
            2_000,
            &mut rng,
        ));
    }
    let pinned = |table: &[u64]| -> Vec<Option<u64>> {
        table.iter().map(|&t| (t != MISS).then_some(t)).collect()
    };
    assert_eq!(point, pinned(&PINNED_POINT), "point target");
    assert_eq!(capped, pinned(&PINNED_CAPPED), "capped target");
    assert_eq!(ball, pinned(&PINNED_BALL), "ball target");
}

#[test]
fn seeded_parallel_hits_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(0xE6_20);
    for (trial, (time, winner, exponents)) in PINNED_PARALLEL.iter().enumerate() {
        let hit = parallel_hitting_time(
            6,
            &ExponentStrategy::UniformSuperdiffusive,
            Point::ORIGIN,
            Point::new(9, 4),
            20_000,
            &mut rng,
        );
        let expected = ParallelHit {
            time: *time,
            winner: *winner,
            exponents: exponents.to_vec(),
        };
        assert_eq!(hit, expected, "parallel trial {trial}");
    }
}
