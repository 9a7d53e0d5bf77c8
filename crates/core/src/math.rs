//! Modular arithmetic and primality — the in-tree replacement for GMP.
//!
//! XMap links GMP to run its address-permutation group arithmetic on
//! 128-bit values. Offline we implement the needed subset directly:
//! overflow-safe modular multiplication and exponentiation for moduli up to
//! 2¹²⁷, deterministic Miller–Rabin primality for 64-bit integers, Pollard
//! rho factorization, and primitive-root search — everything
//! [`crate::cyclic`] needs to build a multiplicative-group permutation over
//! an arbitrary scan space.

/// `a * b mod m` without overflow, for any `m < 2^127`.
///
/// Reduces both operands first, so any inputs are accepted. Uses native
/// 128-bit widening when the reduced operands fit in 64 bits, falling back
/// to double-and-add for large moduli. That is three `u128` divisions on
/// the fast path; a hot loop whose operands are already reduced below a
/// modulus of at most 2⁶⁴ needs only the last one (the cyclic walk's step
/// does exactly that).
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn mulmod(a: u128, b: u128, m: u128) -> u128 {
    assert!(m != 0, "modulus must be nonzero");
    let (a, b) = (a % m, b % m);
    // Fast path: both operands fit in 64 bits, product fits in u128.
    if a <= u64::MAX as u128 && b <= u64::MAX as u128 {
        return (a * b) % m;
    }
    // Double-and-add: runs in O(bits(b)); valid while m < 2^127 so that
    // the running sum `acc + a` and the doubling `a + a` never overflow.
    debug_assert!(m < 1u128 << 127, "modulus must be < 2^127");
    let (mut a, mut b) = (a, b);
    let mut acc: u128 = 0;
    while b > 0 {
        if b & 1 == 1 {
            acc = addmod(acc, a, m);
        }
        a = addmod(a, a, m);
        b >>= 1;
    }
    acc
}

/// `a + b mod m` without overflow (requires `a, b < m < 2^127`).
fn addmod(a: u128, b: u128, m: u128) -> u128 {
    let s = a + b;
    if s >= m {
        s - m
    } else {
        s
    }
}

/// `base ^ exp mod m`.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn powmod(base: u128, mut exp: u128, m: u128) -> u128 {
    assert!(m != 0, "modulus must be nonzero");
    if m == 1 {
        return 0;
    }
    let mut base = base % m;
    let mut acc: u128 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin primality test, exact for all `n < 2^64`
/// (using the standard 12-base witness set) and strong probabilistic
/// evidence above that.
pub fn is_prime(n: u128) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u128, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        r += 1;
    }
    'witness: for a in [2u128, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The smallest prime strictly greater than `n`.
///
/// # Panics
///
/// Panics if the search would exceed 2¹²⁶ (never for scan-space sizes).
pub fn next_prime(n: u128) -> u128 {
    let mut candidate = n + 1 + (n & 1); // first odd > n (or 2 -> 3)
    if n < 2 {
        return 2;
    }
    if candidate <= n {
        candidate = n + 1;
    }
    if candidate.is_multiple_of(2) {
        candidate += 1;
    }
    loop {
        assert!(candidate < 1u128 << 126, "prime search out of range");
        if is_prime(candidate) {
            return candidate;
        }
        candidate += 2;
    }
}

/// Pollard's rho: one nontrivial factor of a composite `n` (n > 3, odd or
/// even handled). Deterministic given the built-in parameter schedule.
fn pollard_rho(n: u128) -> u128 {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut c: u128 = 1;
    loop {
        let mut x: u128 = 2;
        let mut y: u128 = 2;
        let mut d: u128 = 1;
        while d == 1 {
            x = addmod(mulmod(x, x, n), c, n);
            y = addmod(mulmod(y, y, n), c, n);
            y = addmod(mulmod(y, y, n), c, n);
            d = gcd(x.abs_diff(y), n);
        }
        if d != n {
            return d;
        }
        c += 1; // cycle found the trivial factor; retry with new constant
    }
}

/// Greatest common divisor.
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The distinct prime factors of `n`, ascending.
pub fn prime_factors(mut n: u128) -> Vec<u128> {
    let mut out = Vec::new();
    // Strip small primes by trial division first.
    for p in [2u128, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
        if n.is_multiple_of(p) {
            out.push(p);
            while n.is_multiple_of(p) {
                n /= p;
            }
        }
    }
    let mut stack = vec![n];
    while let Some(m) = stack.pop() {
        if m <= 1 {
            continue;
        }
        if is_prime(m) {
            if !out.contains(&m) {
                out.push(m);
            }
            continue;
        }
        let d = pollard_rho(m);
        stack.push(d);
        stack.push(m / d);
    }
    out.sort_unstable();
    out
}

/// A primitive root (generator of the multiplicative group) modulo prime `p`.
///
/// # Panics
///
/// Panics if `p` is not prime or `p < 3`.
pub fn primitive_root(p: u128) -> u128 {
    assert!(
        p >= 3 && is_prime(p),
        "primitive_root requires an odd prime"
    );
    let phi = p - 1;
    let factors = prime_factors(phi);
    'candidate: for g in 2..p {
        for q in &factors {
            if powmod(g, phi / q, p) == 1 {
                continue 'candidate;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mulmod_small_and_large() {
        assert_eq!(mulmod(7, 9, 13), 63 % 13);
        // Large operands that would overflow a naive u128 multiply.
        let m = (1u128 << 100) + 3;
        let a = (1u128 << 99) + 7;
        let b = (1u128 << 98) + 11;
        let r = mulmod(a, b, m);
        assert!(r < m);
        // Cross-check with double-and-add identity: (a*b) mod m == sum.
        assert_eq!(mulmod(a, 2, m), addmod(a, a, m));
        // Commutativity.
        assert_eq!(mulmod(a, b, m), mulmod(b, a, m));
    }

    #[test]
    fn powmod_matches_naive() {
        for (b, e, m) in [(3u128, 13u128, 97u128), (10, 0, 7), (2, 64, 1_000_003)] {
            let mut naive: u128 = 1;
            for _ in 0..e {
                naive = (naive * b) % m;
            }
            assert_eq!(powmod(b, e, m), naive, "{b}^{e} mod {m}");
        }
        assert_eq!(powmod(5, 100, 1), 0);
    }

    #[test]
    fn primality_known_values() {
        for p in [2u128, 3, 5, 7, 61, 97, 65_537, 4_294_967_311, (1 << 61) - 1] {
            assert!(is_prime(p), "{p} is prime");
        }
        for c in [1u128, 4, 9, 561, 65_535, 4_294_967_297, (1 << 61) + 1] {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn next_prime_values() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 3);
        assert_eq!(next_prime(100), 101);
        // ZMap's famous constant: the smallest prime > 2^32.
        assert_eq!(next_prime(1 << 32), 4_294_967_311);
        assert_eq!(next_prime(1 << 16), 65_537);
    }

    #[test]
    fn factoring_composites() {
        assert_eq!(prime_factors(12), vec![2, 3]);
        // 2^32 - 2 = 2 x 2147483647 (a Mersenne prime).
        assert_eq!(prime_factors(4_294_967_294), vec![2, 2_147_483_647]);
        assert_eq!(prime_factors(4_294_967_310), vec![2, 3, 5, 131, 364_289]);
        assert_eq!(prime_factors(97), vec![97]);
        assert_eq!(prime_factors(1), Vec::<u128>::new());
    }

    #[test]
    fn primitive_roots_generate() {
        for p in [5u128, 7, 97, 65_537, 4_294_967_311] {
            let g = primitive_root(p);
            // g^(p-1) == 1 but no smaller prime-quotient power is 1.
            assert_eq!(powmod(g, p - 1, p), 1);
            for q in prime_factors(p - 1) {
                assert_ne!(powmod(g, (p - 1) / q, p), 1, "g={g} p={p} q={q}");
            }
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(gcd(0, 7), 7);
    }
}
