"""Counter-based random streams keyed by a pair of integers.

Every random draw in the package comes from a Philox generator whose key is
(seed, index), so a stream depends on its key alone: runs are reproducible
and independent of the order, chunking or process that draws them.

numpy's `Philox` is Philox4x64-10 (Salmon et al., SC11 2011): the stream
keyed by (k0, k1) is the cipher of the counters (1, 0, 0, 0), (2, 0, 0, 0),
..., four 64-bit words per counter, and `Generator.standard_normal` turns
each word into a normal with numpy's 256-layer ziggurat (Marsaglia & Tsang,
J. Stat. Softw. 5(8), 2000), taking further words for the rare draw outside
its fast region.  `keyed_normals` runs both for a whole stack of keys in
uint64 arithmetic, so a large stack needs neither a generator per row nor
`numpy.random`, which only `keyed_rng` and small stacks import.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

_MASK64 = (1 << 64) - 1

# the crossover of `keyed_normals`, measured as its docstring says
_STACK_ROWS = 256
# most Philox words (2 MiB) one pass of `_stacked` draws at once: a pass's
# temporaries then stay near 11 MiB at 4 normals a row and 30 MiB at 256,
# and a Monte Carlo block of 1024 samples (36 864 rows of 4) is one pass
_CHUNK_WORDS = 1 << 18

# Philox4x64-10: each round's two multipliers, with their 32-bit halves,
# and the increments of the key's two words between rounds
_MULT0, _MULT1 = (
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_BUMPS1 = [np.uint64(r * _W1 & _MASK64) for r in range(10)]
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _table(text: str) -> np.ndarray:
    """256 big-endian 64-bit words written in hex."""
    return np.frombuffer(bytes.fromhex(text), dtype=">u8").astype(np.uint64)


# numpy's ziggurat tables for standard normals, one entry per layer: ki
# bounds the 52-bit rabs of the layer's fast region, wi scales rabs to x,
# and fi is the density exp(-x^2 / 2) at the layer's edge x = 2^52 wi, with
# fi[0] = 1 (wi and fi as float64 bits).  fi is numpy's own table: from wi
# in double precision, fi[38] comes out one ulp lower, which changes wedge
# decisions at layers 38 and 39.  tests/test_streams.py derives ki and wi
# again from the installed numpy and checks fi at every layer's wedge flip
# point, so a numpy with other tables fails there instead of drawing other
# numbers.
_KI = _table(
    """
    000ef33d8025ef6a 0000000000000000 000c08be98fbc6a8 000da354fabd8142 000e51f67ec1eeea 000eb255e9d3f77e
    000eef4b817ecab9 000f19470afa44aa 000f37ed61ffcb18 000f4f469561255c 000f61a5e41ba396 000f707a755396a4
    000f7cb2ec28449a 000f86f10c6357d3 000f8fa6578325de 000f9724c74dd0da 000f9da907dbf509 000fa360f581fa74
    000fa86fde5b4bf8 000facf160d354dc 000fb0fb6718b90f 000fb49f8d5374c6 000fb7ec2366fe77 000fbaece9a1e50e
    000fbdab9d040bed 000fc03060ff6c57 000fc2821037a248 000fc4a67ae25bd1 000fc6a2977aee31 000fc87aa92896a4
    000fca325e4bde85 000fcbcce902231a 000fcd4d12f839c4 000fceb54d8fec99 000fd007bf1dc930 000fd1464dd6c4e6
    000fd272a8e2f450 000fd38e4ff0c91e 000fd49a9990b478 000fd598b8920f53 000fd689c08e99ec 000fd76ea9c8e832
    000fd848547b08e8 000fd9178bad2c8c 000fd9dd07a7add2 000fda9970105e8c 000fdb4d5dc02e20 000fdbf95c5bfcd0
    000fdc9debb99a7d 000fdd3b8118729d 000fddd288342f90 000fde6364369f64 000fdeee708d514e 000fdf7401a6b42e
    000fdff46599ed40 000fe06fe4bc24f2 000fe0e6c225a258 000fe1593c28b84c 000fe1c78cbc3f99 000fe231e9db1caa
    000fe29885da1b91 000fe2fb8fb54186 000fe35b33558d4a 000fe3b799d0002a 000fe410e99ead7f 000fe46746d47734
    000fe4bad34c095c 000fe50baed29524 000fe559f74ebc78 000fe5a5c8e41212 000fe5ef3e138689 000fe6366fd91078
    000fe67b75c6d578 000fe6be661e11aa 000fe6ff55e5f4f2 000fe73e5900a702 000fe77b823e9e39 000fe7b6e37070a2
    000fe7f08d774243 000fe8289053f08c 000fe85efb35173a 000fe893dc840864 000fe8c741f0cebc 000fe8f9387d4ef6
    000fe929cc879b1d 000fe95909d388ea 000fe986fb939aa2 000fe9b3ac714866 000fe9df2694b6d5 000fea0973abe67c
    000fea329cf166a4 000fea5aab32952c 000fea81a6d5741a 000feaa797de1cf0 000feacc85f3d920 000feaf07865e63c
    000feb13762fec13 000feb3585fe2a4a 000feb56ae3162b4 000feb76f4e284fa 000feb965fe62014 000febb4f4cf9d7c
    000febd2b8f449d0 000febefb16e2e3e 000fec0be31ebde8 000fec2752b15a15 000fec42049dafd3 000fec5bfd29f196
    000fec75406ceef4 000fec8dd2500cb4 000feca5b6911f12 000fecbcf0c427fe 000fecd38454fb15 000fece97488c8b3
    000fecfec47f91b7 000fed1377358528 000fed278f844903 000fed3b10242f4c 000fed4dfbad586e 000fed605498c3dd
    000fed721d414fe8 000fed8357e4a982 000fed9406a42cc8 000feda42b85b704 000fedb3c8746ab4 000fedc2df416652
    000fedd171a46e52 000feddf813c8ad3 000feded0f909980 000fedfa1e0fd414 000fee06ae124bc4 000fee12c0d95a06
    000fee1e579006e0 000fee29734b6524 000fee34150ae4bc 000fee3e3db89b3c 000fee47ee2982f4 000fee51271db086
    000fee59e9407f41 000fee623528b42e 000fee6a0b5897f1 000fee716c3e077a 000fee7858327b82 000fee7ecf7b06ba
    000fee84d2484ab2 000fee8a60b66343 000fee8f7accc851 000fee94207e25da 000fee9851a829ea 000fee9c0e13485c
    000fee9f557273f4 000feea22762ccae 000feea4836b42ac 000feea668fc2d71 000feea7d76ed6fa 000feea8ce04fa0a
    000feea94be8333b 000feea950296410 000feea8d9c0075e 000feea7e7897654 000feea678481d24 000feea48aa29e83
    000feea21d22e4da 000fee9f2e352024 000fee9bbc26af2e 000fee97c524f2e4 000fee93473c0a3a 000fee8e40557516
    000fee88ae369c7a 000fee828e7f3dfd 000fee7bdea7b888 000fee749bff37ff 000fee6cc3a9bd5e 000fee64529e007e
    000fee5b45a32888 000fee51994e57b6 000fee474a0006cf 000fee3c53e12c50 000fee30b2e02ad8 000fee2462ad8205
    000fee175eb83c5a 000fee09a22a1447 000fedfb27e349cc 000fedebea76216c 000feddbe422047e 000fedcb0ece39d3
    000fedb964042cf4 000feda6dce938c9 000fed937237e98d 000fed7f1c38a836 000fed69d2b9c02b 000fed538d06ae00
    000fed3c41dea422 000fed23e76a2fd8 000fed0a732fe644 000fecefda07fe34 000fecd4100eb7b8 000fecb708956eb4
    000fec98b61230c1 000fec790a0da978 000fec57f50f31fe 000fec356686c962 000fec114cb4b335 000febeb948e6fd0
    000febc429a0b692 000feb9af5ee0cdc 000feb6fe1c98542 000feb42d3ad1f9e 000feb13b00b2d4b 000feae2591a02e9
    000feaaeae992257 000fea788d8ee326 000fea3fcffd73e5 000fea044c8dd9f6 000fe9c5d62f563b 000fe9843ba947a4
    000fe93f471d4728 000fe8f6bd76c5d6 000fe8aa5dc4e8e6 000fe859e07ab1ea 000fe804f690a940 000fe7ab488233c0
    000fe74c751f6aa5 000fe6e8102aa202 000fe67da0b6abd8 000fe60c9f38307e 000fe5947338f742 000fe51470977280
    000fe48bd436f458 000fe3f9bffd1e37 000fe35d35eeb19c 000fe2b5122fe4fe 000fe20003995557 000fe13c82788314
    000fe068c4ee67b0 000fdf82b02b71aa 000fde87c57efeaa 000fdd7509c63bfd 000fdc46e529bf13 000fdaf8f82e0282
    000fd985e1b2ba75 000fd7e6ef48cf04 000fd613adbd650b 000fd40149e2f012 000fd1a1a7b4c7ac 000fcee204761f9e
    000fcba8d85e11b2 000fc7d26ecd2d22 000fc32b2f1e22ed 000fbd6581c0b83a 000fb606c4005434 000fac40582a2874
    000f9e971e014598 000f89fa48a41dfc 000f66c5f7f0302c 000f1a5a4b331c4a
    """
)
_WI = _table(
    """
    3ccf493b7815d979 3c8b8d0be3fdf6c6 3c9250af3c2c5bb4 3c957cb938443b61 3c9801fce82fa70c 3c9a230c2e4cd0bc
    3c9c004d2f3861f7 3c9dac2f5a747274 3c9f32482d4cd5c3 3ca04d32278ebbad 3ca0f5053b025d43 3ca192a697413677
    3ca227a28f7a1af5 3ca2b52e3863d880 3ca33c3fc05791f5 3ca3bd9ec1a2b12f 3ca439ef8dff9b55 3ca4b1bb363dfea7
    3ca52575621ad374 3ca59580a707ce96 3ca60231cfd97eea 3ca66bd261a37c3d 3ca6d2a292000570 3ca736dad346f8a6
    3ca798ad10b32a77 3ca7f845ad46f543 3ca855cc53430a77 3ca8b1649e7b769a 3ca90b2ea94ecf98 3ca96347822c1eea
    3ca9b9c98e38c546 3caa0eccdca4a72c 3caa62676d77cd59 3caab4ad6e101630 3cab05b16d136c9c 3cab558487427a29
    3caba4368e529f3a 3cabf1d62abf8232 3cac3e70f9594ef3 3cac8a13a5323b61 3cacd4c9fe72268b 3cad1e9f0e80b748
    3cad679d29e41f10 3cadafce0023b8c3 3cadf73aa9f17653 3cae3debb5d2edfe 3cae83e9337a6f00 3caec93abdf982ce
    3caf0de784f06226 3caf51f654d8f688 3caf956d9e87d7ae 3cafd8537dfa2eac 3cb00d56e04234ec 3cb02e40f5398f9a
    3cb04eea9e16a5fc 3cb06f565b72a010 3cb08f869071f40b 3cb0af7d84bc6113 3cb0cf3d664bcc7f 3cb0eec84b16086b
    3cb10e20329515ee 3cb12d4707310fbe 3cb14c3e9f8e9141 3cb16b08bfc4201e 3cb189a71a78da34 3cb1a81b51ee6d88
    3cb1c666f8f82acb 3cb1e48b93e0d42e 3cb2028a9940a09f 3cb2206572c4c6e9 3cb23e1d7de9c31f 3cb25bb40ca96bfb
    3cb2792a661dd37f 3cb29681c719d71b 3cb2b3bb62b82eda 3cb2d0d862e1b853 3cb2edd9e8cba98e 3cb30ac10d6e48d7
    3cb3278ee1f4b930 3cb3444470265ea1 3cb360e2baca52d5 3cb37d6abe05586a 3cb399dd6fb2b264 3cb3b63bbfb83d03
    3cb3d28698561de0 3cb3eebede725a83 3cb40ae571e09e74 3cb426fb2da6745d 3cb44300e83c30a4 3cb45ef773cac75d
    3cb47adf9e66c336 3cb496ba32488f2f 3cb4b287f602415d 3cb4ce49acb311dc 3cb4ea001638a605 3cb505abef5e5562
    3cb5214df20a8b5a 3cb53ce6d56a664f 3cb558774e1bb2c8 3cb574000e555f78 3cb58f81c60e8514 3cb5aafd23241b59
    3cb5c672d17d733d 3cb5e1e37b2f8cd3 3cb5fd4fc89f5e38 3cb618b860a31fc3 3cb6341de8a2b0a2 3cb64f8104b7260b
    3cb66ae257c99672 3cb6864283b13137 3cb6a1a22950b2b1 3cb6bd01e8b343bb 3cb6d8626128d352 3cb6f3c43161f854
    3cb70f27f78b68eb 3cb72a8e516914c6 3cb745f7dc70eedc 3cb7616535e5731f 3cb77cd6faeff449 3cb7984dc8babd93
    3cb7b3ca3c8b1409 3cb7cf4cf3db22fb 3cb7ead68c73dee7 3cb80667a486ea1f 3cb82200dac88676 3cb83da2ce899f15
    3cb8594e1fd1f5bd 3cb875036f7a7ec5 3cb890c35f47f72d 3cb8ac8e9205c043 3cb8c865aba10c9c 3cb8e44951446a27
    3cb9003a2973b58f 3cb91c38dc288347 3cb9384612ef0afc 3cb954627903a28a 3cb9708ebb70d5ee 3cb98ccb892e2a31
    3cb9a919933f99bf 3cb9c5798cd5d92c 3cb9e1ec2b6f7411 3cb9fe7226fad24a 3cba1b0c39f93692 3cba37bb21a2c85b
    3cba547f9e0bbb88 3cba715a724aa9a4 3cba8e4c64a0313d 3cbaab563e9ff108 3cbac878cd5af5ce 3cbae5b4e18bb336
    3cbb030b4fc3a11a 3cbb207cf09a985b 3cbb3e0aa0e00c00 3cbb5bb541ce3d03 3cbb797db93f8927 3cbb9764f1e5f73c
    3cbbb56bdb85256e 3cbbd3936b2ec0a2 3cbbf1dc9b81ae83 3cbc10486cec16a0 3cbc2ed7e5f07a2d 3cbc4d8c136e0d1c
    3cbc6c6608ec8705 3cbc8b66e0eba617 3cbcaa8fbd36a2ab 3cbcc9e1c73bd690 3cbce95e3068e037 3cbd0906328b8f6e
    3cbd28db1037ef20 3cbd48de1533c647 3cbd691096e7f123 3cbd8973f4d7fba5 3cbdaa0999206e70 3cbdcad2f8fc490e
    3cbdebd195522e37 3cbe0d06fb49d21c 3cbe2e74c4ea46f6 3cbe501c99c1d188 3cbe72002f97fe25 3cbe94214b2abf0a
    3cbeb681c0f76f08 3cbed9237610a73a 3cbefc086101eca9 3cbf1f328ac25321 3cbf42a40fb74d6d 3cbf665f20c90168
    3cbf8a6604899782 3cbfaebb187122bf 3cbfd360d22fe785 3cbff859c118f60b 3cc00ed447d3a075 3cc021a8028fc947
    3cc034a983a902ab 3cc047da4e3ef5c7 3cc05b3bf6adb37e 3cc06ed023a72668 3cc082988f632e17 3cc0969708e8a254
    3cc0aacd7571c0c4 3cc0bf3dd1eed448 3cc0d3ea34aa3d30 3cc0e8d4cf116593 3cc0fdffefa69fb6 3cc1136e04207041
    3cc129219bbb5d35 3cc13f1d69c4096d 3cc1556448602e3b 3cc16bf93b9deef3 3cc182df74d21261 3cc19a1a564eebac
    3cc1b1ad777f2f8e 3cc1c99ca971a694 3cc1e1ebfbe4ae39 3cc1fa9fc2e2d901 3cc213bc9d04cc81 3cc22d477a6fd3ee
    3cc24745a4ac9c24 3cc261bcc77658e0 3cc27cb2faa8592e 3cc2982ecd770e78 3cc2b437532a0a52 3cc2d0d43196db97
    3cc2ee0db1a978f5 3cc30becd256aeee 3cc32a7b5e68a4a3 3cc349c405ae12a3 3cc369d27a33a840 3cc38ab39256410a
    3cc3ac7570ae88fa 3cc3cf27b31704a6 3cc3f2dbaa60f475 3cc417a49cb9e5da 3cc43d9815545e94 3cc464ce44a73a15
    3cc48d62759c43bc 3cc4b7739d6b5a27 3cc4e3250dcd8902 3cc5109f53e9ac41 3cc54011523a7e42 3cc571b1a94ae41b
    3cc5a5c08b718dd9 3cc5dc8a243ad0fe 3cc61669cf861e4c 3cc653ce7b006aea 3cc69540be9fe5c3 3cc6db6b8d09e232
    3cc72728f05f7a34 3cc7799556090673 3cc7d42df4d6ce8c 3cc839030529f234 3cc8ab0fbfaa7c14 3cc92ee0946f4496
    3cc9cbee014057ab 3cca8fdc7894775a 3ccb981f3878fdb1 3ccd3bb48209ad33
    """
)
_FI = _table(
    """
    3ff0000000000000 3fef446ac979f087 3feeb7545b6ca915 3fee3f11e027f077 3fedd36fa704de95 3fed70920657bcf2
    3fed144978a119dc 3fecbd33a8a72deb 3fec6a5ecea9787f 3fec1b1cd9eebaea 3febceeb4ee1dc82 3feb85653a8ff552
    3feb3e3a8234dd10 3feaf92a3f6ce8a2 3feab5fef17a2504 3fea748bd550c9e1 3fea34aafdf5af0f 3fe9f63bee651fd8
    3fe9b9228d240681 3fe97d4657617ac1 3fe94291c21b7a47 3fe908f1bd31714f 3fe8d0554fe60aa8 3fe898ad48badf02
    3fe861ebfc37bcac 3fe82c050f56cf6e 3fe7f6ed4b20e2cb 3fe7c29a779c6858 3fe78f033ca0b0d5 3fe75c1f0770d856
    3fe729e5f43f6d12 3fe6f850baea7aee 3fe6c7589e635a89 3fe696f75e513b2a 3fe667272a92e323 3fe637e298550c18
    3fe6092498802665 3fe5dae86f4aff6a 3fe5ad29acc85c89 3fe57fe4264c8d8f 3fe55313f08d9e46 3fe526b55a656cd5
    3fe4fac4e820b667 3fe4cf3f4f494ec0 3fe4a42172dc5278 3fe479685fdf5012 3fe44f114a493679 3fe425198a355fe3
    3fe3fb7e99585b82 3fe3d23e10af31a3 3fe3a955a662cd0e 3fe380c32bda00d5 3fe358848bf550e9 3fe33097c9703a35
    3fe308fafd6438ef 3fe2e1ac55ea3bee 3fe2baaa14d7954a 3fe293f28e93cd15 3fe26d84290504ed 3fe2475d5a90db84
    3fe2217ca92ff7f2 3fe1fbe0a9929620 3fe1d687fe549969 3fe1b171573fd111 3fe18c9b709b3c50 3fe16805128639da
    3fe143ad105ea99c 3fe11f9248311f38 3fe0fbb3a2325913 3fe0d810104142a0 3fe0b4a68d70d9ae 3fe091761d995d81
    3fe06e7dccf03c36 3fe04bbcafa63f2e 3fe02931e18b822a 3fe006dc85b8cac4 3fdfc9778c7bbda1 3fdf859da7a900ca
    3fdf4229cb2f7af3 3fdeff1a717e8f95 3fdebc6e20bd1f54 3fde7a236a4ec3c5 3fde3838ea5f9b85 3fddf6ad47763a09
    3fddb57f320b56b1 3fdd74ad6426de33 3fdd3436a1021080 3fdcf419b4ae5b6d 3fdcb45573c0a848 3fdc74e8bb00d7c7
    3fdc35d26f1d2cb8 3fdbf7117c616a17 3fdbb8a4d6716d91 3fdb7a8b7807131b 3fdb3cc462b331ca 3fdaff4e9ea18552
    3fdac2293a5f5a9e 3fda85534aa4d880 3fda48cbea20c04d 3fda0c923946843e 3fd9d0a55e1e93df 3fd995048418c0c6
    3fd959aedbe09f93 3fd91ea39b33cb17 3fd8e3e1fcb9f115 3fd8a9693fde9188 3fd86f38a8ac5ab6 3fd8354f7faa0dd9
    3fd7fbad11b8d911 3fd7c250aff414b0 3fd78939af9252eb 3fd7506769c7b1ed 3fd717d93ba9614c 3fd6df8e86124caa
    3fd6a786ad88de21 3fd66fc11a25cbe2 3fd6383d377be515 3fd600fa7480d2c8 3fd5c9f84376c244 3fd5933619d6eebe
    3fd55cb3703d0100 3fd5266fc2533bed 3fd4f06a8ebf6d92 3fd4baa357109ca2 3fd485199fad6ad4 3fd44fccefc324fe
    3fd41abcd1357a19 3fd3e5e8d08ed2db 3fd3b1507cf143ae 3fd37cf368081379 3fd348d125f9d19e 3fd314e94d5af62f
    3fd2e13b77210766 3fd2adc73e963fdd 3fd27a8c414db11e 3fd2478a1f17de89 3fd214c079f7cc9e 3fd1e22ef6188116
    3fd1afd539c2f050 3fd17db2ed5454e8 3fd14bc7bb34ee67 3fd11a134fcf2423 3fd0e895598709c4 3fd0b74d88b242da
    3fd0863b8f904336 3fd0555f2242e9d9 3fd024b7f6c7747e 3fcfe88b89df93c5 3fcf88108cb83235 3fcf27fe6ce998d2
    3fcec854a4c99c44 3fce6912b2283cdd 3fce0a3816457184 3fcdabc455c7900a 3fcd4db6f8b2514f 3fccf00f8a5e6fcc
    3fcc92cd9971df53 3fcc35f0b7d89d47 3fcbd9787abe18a1 3fcb7d647a8731aa 3fcb21b452ccd13a 3fcac667a2571807
    3fca6b7e0b19267e 3fca10f7322d7e3d 3fc9b6d2bfd2fe5a 3fc95d105f6a7c27 3fc903afbf74fa69 3fc8aab09192815b
    3fc852128a819a38 3fc7f9d5621f7175 3fc7a1f8d368a323 3fc74a7c9c7ab5a6 3fc6f3607e964716 3fc69ca43e21f25c
    3fc64647a2adf19c 3fc5f04a76f883f9 3fc59aac88f31d6c 3fc5456da9c86835 3fc4f08dade31fc1 3fc49c0c6cf5ce2d
    3fc447e9c20375d5 3fc3f4258b6931ae 3fc3a0bfaae8d7ee 3fc34db805b4ab88 3fc2fb0e847c2a65 3fc2a8c3137a071a
    3fc256d5a2835eb7 3fc2054625183c34 3fc1b41492757d42 3fc16340e5a82d63 3fc112cb1da26eb9 3fc0c2b33d5209ba
    3fc072f94bb8bf85 3fc0239d54067d2a 3fbfa93ecb6b222c 3fbf0bff29520e1c 3fbe6f7bf29aa54b 3fbdd3b56176e88f
    3fbd38abb9bd91e5 3fbc9e5f493b740a 3fbc04d0680b1015 3fbb6bff78f2e233 3fbad3ece9caf633 3fba3c9933ea6286
    3fb9a604dc9d5b19 3fb9103075a4a0ab 3fb87b1c9dbf2852 3fb7e6ca013eefd6 3fb753395aaa1176 3fb6c06b73694a4c
    3fb62e6124854d18 3fb59d1b577466a4 3fb50c9b06fa2bae 3fb47ce1401b2213 3fb3edef23269a86 3fb35fc5e4d93e70
    3fb2d266cf9b3111 3fb245d344dd0d91 3fb1ba0cbe97897d 3fb12f14d0f2179d 3fb0a4ed2c159625 3fb01b979e30e497
    3faf262c2b6c6e35 3fae16d547b25181 3fad092efeadf162 3fabfd3e0f282a2c 3faaf30790385f70 3fa9ea90f9295563
    3fa8e3e02a68b5ab 3fa7defb77af271e 3fa6dbe9b398d064 3fa5dab23cf2add4 3fa4db5d0e11275d 3fa3ddf2ce98eecb
    3fa2e27ce83df497 3fa1e9059f1f6abc 3fa0f1982e968011 3f9ff881d718a5c4 3f9e121adb828c75 3f9c301983cd091a
    3f9a529f4e22ebf8 3f9879d1b600c10a 3f96a5daf40bbf82 3f94d6eaf2fbb064 3f930d388dab5e13 3f91490334603012
    3f8f152a4f72dd49 3f8ba48d274f8fac 3f8841040d8da478 3f84eb96421acfe0 3f81a59229952f92 3f7ce160f8ec6837
    3f769ea8d90cb85d 3f708a1f03b0b1fd 3f655f9f43c1b067 3f54a605b6b9f70f
    """
)
_WI, _FI = _WI.view(np.float64), _FI.view(np.float64)
_KI_LIST, _WI_LIST, _FI_LIST = _KI.tolist(), _WI.tolist(), _FI.tolist()
# indexed by a word's low 9 bits, the layer and then the sign bit
_SIGNED_WI = np.concatenate([_WI, -_WI])
_KI2 = np.concatenate([_KI, _KI]).view(np.int64)
_RABS = (1 << 52) - 1
# the base layer's tail begins at r
_R, _INV_R = 3.654152885361009, 0.2736612373297583
# a word's next_double is (w >> 11) * 2^-53
_U53 = 2.0**-53


def keyed_rng(seed: int, index: int) -> Generator:
    """Philox generator keyed by (seed, index), each reduced to 64 bits."""
    from numpy.random import Generator, Philox

    return Generator(Philox(key=np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)))


def keyed_normals(seed: int, indices, size: int) -> np.ndarray:
    """Standard normals, one row of `size` per index.

    Row r equals keyed_rng(seed, indices[r]).standard_normal(size) bit for
    bit.  A stack of _STACK_ROWS = 256 rows or more is drawn by `_stacked`,
    a smaller one by `_reset_loop`.  That is where their costs cross: with
    `numpy.random` already loaded, 4 normals per row took 0.53-0.55 ms
    stacked against 0.30 ms per row at 128 rows, 0.58-0.60 against
    0.57-0.59 ms at 256 and 0.60-0.63 against 0.70-0.73 ms at 320 (2-vCPU
    VM, numpy 2.4).  The stacked pass's fixed cost, about 0.5 ms, is two
    Philox passes of some 350 small array operations each, the second over
    the rows with a draw outside the ziggurat's fast region.  A process
    whose stacks all reach the crossover never imports `numpy.random`
    (11-18 ms).
    """
    if len(indices) < _STACK_ROWS:
        return _reset_loop(seed, indices, size)
    if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
        keys = indices.astype(np.uint64)
    else:
        keys = np.array([int(index) & _MASK64 for index in indices], dtype=np.uint64)
    return _stacked(seed, keys, size)


def _reset_loop(seed: int, indices, size: int) -> np.ndarray:
    """keyed_normals with one Philox for every row: its state is reset to the
    key with a zero counter and an empty buffer, which is where a new keyed
    generator starts, at a fraction of the cost of building one."""
    from numpy.random import Generator, Philox

    bitgen = Philox(key=np.zeros(2, dtype=np.uint64))
    gen = Generator(bitgen)
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zero, "key": key},
        "buffer": zero,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((len(indices), size))
    for row, index in zip(out, indices):
        key[1] = int(index) & _MASK64
        bitgen.state = state
        gen.standard_normal(out=row)
    return out


def _stacked(seed: int, keys: np.ndarray, size: int) -> np.ndarray:
    """keyed_normals for uint64 keys, each chunk of rows from one Philox pass.

    A chunk's rows hold at most _CHUNK_WORDS words between them, so the
    pass's temporaries stay bounded however many rows are drawn.  No row's
    draws depend on another's, so the chunks change no bit.
    """
    blocks = -(-size // 4)
    step = max(1, _CHUNK_WORDS // (4 * max(blocks, 1)))
    out = np.empty((len(keys), size))
    for lo in range(0, len(keys), step):
        part = keys[lo : lo + step]
        out[lo : lo + step] = _ziggurat(
            _philox_words(seed, part, 1, blocks),
            size,
            lambda rows, block, part=part: _philox_words(seed, part[rows], block, 1),
        )
    return out


def _mulhilo(m, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products m * v, from 32-bit halves;
    m is a multiplier with its halves."""
    m, m_lo, m_hi = m
    v_lo, v_hi = v & _LOW32, v >> _32
    mid = m_lo * v_hi + ((m_lo * v_lo) >> _32)
    carry = m_hi * v_lo + (mid & _LOW32)
    return m * v, m_hi * v_hi + (mid >> _32) + (carry >> _32)


def _philox_words(seed: int, keys: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """Raw words of the counters first ... first + blocks - 1 of every key's
    stream, indexed [row, word]: row r is words 4 (first - 1) onward of
    Philox(key=[seed, keys[r]]).random_raw.

    Broadcasting keeps the first two rounds small: the counter and the seed
    are shared by every row, and only the key's second word is not.
    """
    v0 = np.arange(first, first + blocks, dtype=np.uint64)[None, :]
    v1 = v2 = v3 = np.zeros((1, 1), dtype=np.uint64)
    k0, k1 = seed & _MASK64, keys[:, None]
    for bump1 in _BUMPS1:
        lo0, hi0 = _mulhilo(_MULT0, v0)
        lo1, hi1 = _mulhilo(_MULT1, v2)
        v0, v1, v2, v3 = hi1 ^ v1 ^ np.uint64(k0), lo1, hi0 ^ v3 ^ (k1 + bump1), lo0
        k0 = (k0 + _W0) & _MASK64
    return np.stack(np.broadcast_arrays(v0, v1, v2, v3), axis=-1).reshape(len(keys), 4 * blocks)


def _ziggurat(words: np.ndarray, size: int, more) -> np.ndarray:
    """`size` standard normals from each row of raw words, numpy's
    standard_normal bit for bit.

    words[r] holds the first words of row r's stream, a whole number of
    blocks of 4 and at least `size`; more(rows, block) returns block `block`
    (counting from 1) of the given rows' streams.  Every draw is decoded on
    the fast path at once.  A row with a draw outside it is finished from
    that draw on by `_normals`, which takes further words, so the row's
    later draws move along; its words come from one more block of those
    rows, and another for the rows that run out again.
    """
    first = words[:, :size]
    # the layer and the sign bit index one table: rabs * -wi is -(rabs * wi)
    layer = (first & np.uint64(0x1FF)).astype(np.intp)
    rabs = ((first >> np.uint64(9)) & np.uint64(_RABS)).view(np.int64)
    out = rabs.astype(np.float64) * _SIGNED_WI[layer]
    # each row's first draw outside the fast region, in row-major order
    at = np.flatnonzero(rabs >= _KI2[layer])
    if at.size == 0:
        return out
    first_in_row = np.diff(at // size, prepend=-1) != 0
    rows, cols = np.divmod(at[first_in_row], size)
    cols = cols.tolist()
    streams = words[rows].tolist()
    finished = out[rows].tolist()
    block = words.shape[1] // 4
    todo = list(range(rows.size))
    while todo:
        block += 1
        again = []
        for t, extra in zip(todo, more(rows[todo], block).tolist()):
            streams[t] += extra
            try:
                finished[t][cols[t]:] = _normals(streams[t], cols[t], size - cols[t])
            except IndexError:
                again.append(t)
        todo = again
    out[rows] = finished
    return out


def _normals(words: list[int], at: int, count: int) -> list[float]:
    """`count` standard normals from words[at] on, as numpy's
    random_standard_normal takes them; IndexError if the words run out."""
    out = []
    while len(out) < count:
        w = words[at]
        at += 1
        idx = w & 0xFF
        rabs = (w >> 9) & _RABS
        x = rabs * _WI_LIST[idx]
        if w & 0x100:
            x = -x
        if rabs < _KI_LIST[idx]:
            out.append(x)
        elif idx == 0:
            # the tail beyond r, by Marsaglia's exponential method; its sign
            # is bit 8 of rabs
            while True:
                xx = -_INV_R * math.log1p(-(words[at] >> 11) * _U53)
                yy = -math.log1p(-(words[at + 1] >> 11) * _U53)
                at += 2
                if yy + yy > xx * xx:
                    out.append(-(_R + xx) if (rabs >> 8) & 1 else _R + xx)
                    break
        else:
            # the wedge between the layer's box and the density
            u = (words[at] >> 11) * _U53
            at += 1
            if (_FI_LIST[idx - 1] - _FI_LIST[idx]) * u + _FI_LIST[idx] < math.exp(-0.5 * x * x):
                out.append(x)
    return out
