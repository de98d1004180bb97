/**
 * @file
 * Generalization bench: the Sec. 3 multicast schemes on omega
 * networks of a x a switches (the paper analyzes a = 2 and notes
 * the results generalize). For a fixed machine size, fatter
 * switches mean fewer stages and cheaper multicasts; the scheme
 * break-evens shift accordingly.
 */

#include <cstdio>
#include <vector>

#include "analytic/radix_cost.hh"
#include "net/omega_network.hh"

using namespace mscp;

int
main()
{
    const unsigned N = 4096;
    const Bits M = 20;

    std::printf("# Multicast cost vs switch radix, N=%u ports, "
                "M=%llu\n", N,
                static_cast<unsigned long long>(M));
    std::printf("# (simulated = generalized series, verified in "
                "tests)\n\n");

    for (unsigned a : {2u, 4u, 8u, 16u}) {
        net::RadixOmegaNetwork net(N, a);
        std::printf("## radix %u (%u stages)\n", a,
                    net.numStages());
        std::printf("%8s %14s %14s %14s\n", "n", "scheme1",
                    "scheme2-worst", "scheme3-cluster");
        for (unsigned n = 1; n <= 256; n *= a) {
            std::vector<NodeId> str(n), cl(n);
            for (unsigned j = 0; j < n; ++j) {
                str[j] = j * (N / n);
                cl[j] = j;
            }
            net::RadixOmegaNetwork fresh(N, a);
            auto s1 = fresh.multicast(net::Scheme::Unicasts, 0,
                                      str, M);
            auto s2 = fresh.multicast(net::Scheme::VectorRouting,
                                      0, str, M);
            auto s3 = fresh.multicast(net::Scheme::BroadcastTag, 0,
                                      cl, M);
            std::printf("%8u %14llu %14llu %14llu\n", n,
                        static_cast<unsigned long long>(
                            s1.totalBits),
                        static_cast<unsigned long long>(
                            s2.totalBits),
                        static_cast<unsigned long long>(
                            s3.totalBits));
        }
        std::printf("# scheme 1/2 break-even: n = %llu\n\n",
                    static_cast<unsigned long long>(
                        analytic::breakEvenScheme1Vs2Radix(N, a,
                                                           M)));
    }

    std::printf("# expected: all costs shrink with radix (fewer "
                "stages); break-even moves because\n"
                "# scheme 2's vector still has N bits at injection "
                "while scheme 1's tag shrinks.\n");
    return 0;
}
